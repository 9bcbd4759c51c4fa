"""Least-squares identification of quadratic embeddings.

Given lifted data Z1 (states), Z2 (columnwise Kronecker squares), and Zdot
(lifted time derivatives), the coefficients minimize

    || Zdot - A Z2 - B Z1 - C 1^T ||_F^2  +  lam * ||A||_F^2.

The problem decouples over the N output rows: every row solves the same
symmetric system ``M v = s_row`` whose matrix is the Gram matrix of the
stacked features [Z2; Z1; 1] (plus lam on the leading N^2 diagonal entries),
so one factorization serves all rows.  M is typically rank-deficient
(duplicate product pairs at least); solutions are minimum-norm.

The fit never forms the stacked table.  The Gram system is accumulated
over fixed-size chunks of samples on the N(N+1)/2 unique products
``z_i z_j`` (i <= j), then expanded to the [Z2; Z1; 1] layout by an index
gather, so beyond the lift memory stays O(D^2 + chunk * D) whatever the
sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, feature_matrix_and_derivatives, full_state_matrix
from .dynamics import TrainingSet
from .linalg import min_norm_solve, normal_equations
from .model import QuadraticModel, evaluate_cols, kron_squared_cols

__all__ = [
    "DataMatrices", "GramSystem", "lift", "quadratic_table",
    "build_data_matrices", "assemble_gram", "solve_row", "fit",
    "loss", "gradient_norms", "stationarity_gap",
]


def check_state_dim(d: Dictionary, ts: TrainingSet):
    """Raise ValueError unless the training data lives in d's state space."""
    if ts.n != d.state_dim:
        raise ValueError(
            f"training data has dimension {ts.n}, dictionary expects {d.state_dim}")


def lift(d: Dictionary, ts: TrainingSet):
    """(z1 (N, m), zdot (N, m)): a training set lifted through the dictionary.

    Raises ValueError, naming the basis entry and the sample, when a lifted
    value or lifted derivative is not finite (an overflow, say).
    """
    check_state_dim(d, ts)
    z1, zdot = feature_matrix_and_derivatives(d, ts.states, ts.derivatives)
    for what, lifted in (("value", z1), ("time derivative", zdot)):
        if not np.isfinite(lifted).all():
            entry, sample = np.argwhere(~np.isfinite(lifted))[0]
            raise ValueError(
                f"basis entry {entry} ({d.names[entry]}) has a non-finite lifted "
                f"{what} ({float(lifted[entry, sample])!r}) at sample {sample}")
    return z1, zdot


def quadratic_table(z) -> np.ndarray:
    """The regression table [z kron z; z; 1], (N^2 + N + 1, m), of columns z (N, m)."""
    n, m = z.shape
    table = np.empty((n * n + n + 1, m))
    kron_squared_cols(z, out=table[:n * n])
    table[n * n:-1] = z
    table[-1] = 1.0
    return table


# Sample columns per step of the chunked accumulations; for thomas15 the
# chunk buffer is 136 x 2048 doubles (2.2 MB).
_CHUNK = 2048


def _chunks(m: int):
    for start in range(0, m, _CHUNK):
        yield slice(start, min(start + _CHUNK, m))


def _table_rows(n: int) -> np.ndarray:
    """Row of the unique-product table behind each row of [z kron z; z; 1]:
    flat pair N*i + j maps to the row of (min(i, j), max(i, j))."""
    i, j = np.divmod(np.arange(n * n), n)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    unique = n * (n + 1) // 2
    return np.concatenate([lo * n - lo * (lo - 1) // 2 + hi - lo,
                           np.arange(unique, unique + n + 1)])


def quadratic_normal_equations(z, targets, weights=None):
    """``normal_equations(quadratic_table(z), targets, weights)`` without the table.

    The sums run over chunks of ``_CHUNK`` samples of the unique products
    z_i z_j (i <= j), then z, then 1; the result is expanded to the
    (N^2 + N + 1) layout of :func:`quadratic_table` by one index gather.
    """
    n, m = z.shape
    unique = n * (n + 1) // 2
    size = unique + n + 1
    matrix = np.zeros((size, size))
    rhs = np.zeros((size, targets.shape[0]))
    buffer = np.empty((size, min(m, _CHUNK)))
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in _chunks(m):
            zc = z[:, cols]
            chunk = buffer[:, :zc.shape[1]]
            row = 0
            for i in range(n):
                np.multiply(zc[i], zc[i:], out=chunk[row:row + n - i])
                row += n - i
            chunk[unique:-1] = zc
            chunk[-1] = 1.0
            gram, cross = normal_equations(chunk, targets[:, cols],
                                           None if weights is None else weights[cols])
            matrix += gram
            rhs += cross
    rows = _table_rows(n)
    return matrix[np.ix_(rows, rows)], rhs[rows]


@dataclass(frozen=True, eq=False)
class DataMatrices:
    """Lifted training data: z1 (N, m) and zdot (N, m).

    ``z2`` (N^2, m) and ``table`` [z2; z1; 1] are built on each access; the
    fit itself never needs them.
    """

    z1: np.ndarray
    zdot: np.ndarray

    def __post_init__(self):
        if self.z1.shape != self.zdot.shape:
            raise ValueError(
                f"inconsistent shapes: z1 {self.z1.shape}, zdot {self.zdot.shape}")

    @property
    def z2(self) -> np.ndarray:
        return kron_squared_cols(self.z1)

    @property
    def table(self) -> np.ndarray:
        return quadratic_table(self.z1)

    @property
    def basis_size(self) -> int:
        return self.zdot.shape[0]

    @property
    def sample_count(self) -> int:
        return self.zdot.shape[1]


def build_data_matrices(d: Dictionary, ts: TrainingSet) -> DataMatrices:
    """Lift a training set through the dictionary (see :func:`lift`)."""
    return DataMatrices(*lift(d, ts))


@dataclass(frozen=True, eq=False)
class GramSystem:
    """The shared normal-equation system: matrix (D, D), rhs (D, N).

    D = N^2 + N + 1.  Block order of the rows/columns is products, then
    dictionary entries, then the constant; ``rhs[:, r]`` is the right-hand
    side for output row r.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    lam: float
    sample_count: int
    basis_size: int


def assemble_gram(dm: DataMatrices, lam: float = 0.0) -> GramSystem:
    """Build the shared system; lam shifts only the product-block diagonal."""
    if lam < 0.0:
        raise ValueError(f"regularization must be >= 0, got {lam}")
    n = dm.basis_size
    matrix, rhs = quadratic_normal_equations(dm.z1, dm.zdot)
    if lam > 0.0:
        idx = np.arange(n * n)
        matrix[idx, idx] += lam
    return GramSystem(matrix, rhs, float(lam), dm.sample_count, n)


def solve_row(gs: GramSystem, row: int, rcond=None) -> np.ndarray:
    """Minimum-norm coefficient vector for one output row (0-based).

    Layout of the result: N^2 quadratic coefficients, N linear, 1 constant.
    """
    if not 0 <= row < gs.basis_size:
        raise ValueError(f"row must be in [0, {gs.basis_size}), got {row}")
    return min_norm_solve(gs.matrix, gs.rhs[:, row], rcond)


def fit(d: Dictionary, ts: TrainingSet, *, lam: float = 0.0,
        force_c_zero: bool = False, rcond=None, g=None) -> QuadraticModel:
    """Fit a quadratic embedding model to a training set.

    ``force_c_zero`` removes the constant feature from the regression (its
    row and column are deleted before solving), which cuts down redundant
    representations when the dictionary already spans constants.  ``g``
    overrides the state-recovery matrix; by default the coordinates must
    appear in the dictionary.  ``rcond`` overrides the pseudoinverse cutoff.
    """
    gs = assemble_gram(build_data_matrices(d, ts), lam)
    kept = gs.matrix.shape[0] - int(force_c_zero)
    coeffs = min_norm_solve(gs.matrix[:kept, :kept], gs.rhs[:kept], rcond)
    n = d.size
    a = coeffs[:n * n, :].T
    b = coeffs[n * n:n * n + n, :].T
    c = np.zeros(n) if force_c_zero else coeffs[-1, :].copy()
    metadata = {
        "m": ts.m,
        "lambda": float(lam),
        "provenance": ts.provenance,
        "force_c_zero": bool(force_c_zero),
    }
    return QuadraticModel(a, b, c, full_state_matrix(d, g), d, metadata)


def loss(model: QuadraticModel, dm: DataMatrices, lam: float = 0.0):
    """(residual, residual + lam * ||A||_F^2) for a model on lifted data."""
    residual = 0.0
    for cols in _chunks(dm.sample_count):
        fitted = evaluate_cols(model, dm.z1[:, cols])
        residual += float(np.sum((dm.zdot[:, cols] - fitted) ** 2))
    return residual, residual + float(lam) * float(np.sum(model.a ** 2))


def gradient_norms(model: QuadraticModel, dm: DataMatrices, lam: float = 0.0):
    """Max-abs entries of the loss gradients w.r.t. (A, B, C).

    Computed directly from the data matrices (not via the assembled Gram
    system), so this doubles as an independent stationarity check:

        dL/dA = 2 A Z2 Z2^T - 2 Zdot Z2^T + 2 B Z1 Z2^T + 2 C 1^T Z2^T + 2 lam A
        dL/dB = 2 B Z1 Z1^T - 2 Zdot Z1^T + 2 A Z2 Z1^T + 2 C 1^T Z1^T
        dL/dC = 2 m C - 2 Zdot 1 + 2 A Z2 1 + 2 B Z1 1
    """
    z1, z2, zdot = dm.z1, dm.z2, dm.zdot
    m = dm.sample_count
    ones = np.ones(m)
    c_col = model.c[:, None]
    grad_a = 2.0 * (model.a @ z2 @ z2.T - zdot @ z2.T + model.b @ z1 @ z2.T
                    + c_col @ (ones @ z2.T)[None, :] + lam * model.a)
    grad_b = 2.0 * (model.b @ z1 @ z1.T - zdot @ z1.T + model.a @ z2 @ z1.T
                    + c_col @ (ones @ z1.T)[None, :])
    grad_c = 2.0 * (m * model.c - zdot @ ones + model.a @ (z2 @ ones)
                    + model.b @ (z1 @ ones))
    return (float(np.abs(grad_a).max()), float(np.abs(grad_b).max()),
            float(np.abs(grad_c).max()))


def stationarity_gap(model: QuadraticModel, dm: DataMatrices,
                     lam: float = 0.0) -> float:
    """Largest loss-gradient entry relative to the scale of the Gram system.

    Near zero for any unconstrained minimizer.  For models fitted with
    ``force_c_zero`` the constant-coefficient gradient is excluded (it is a
    constraint, not a free direction).
    """
    grad_a, grad_b, grad_c = gradient_norms(model, dm, lam)
    if model.metadata.get("force_c_zero"):
        worst = max(grad_a, grad_b)
    else:
        worst = max(grad_a, grad_b, grad_c)
    gs = assemble_gram(dm, lam)
    scale = float(np.linalg.norm(gs.matrix)) + float(np.linalg.norm(gs.rhs))
    return worst / max(scale, 1.0)
