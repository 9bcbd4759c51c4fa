"""Least-squares identification of quadratic embeddings.

Given lifted data Z1 (states), Z2 (columnwise Kronecker squares), and Zdot
(lifted time derivatives), the coefficients minimize

    || Zdot - A Z2 - B Z1 - C 1^T ||_F^2  +  lam * ||A||_F^2.

:func:`lifted_chunks` is the one training lift: Z1 and Zdot of a chunk of
samples from one pass of the dictionary's program, with a named check for
non-finite values.  :func:`value_chunks` is its values-only twin, with the
same check, for fits of the state derivatives.  :func:`build_data_matrices`
gathers the lifted chunks into whole (N, m) arrays for callers that need them.

The problem decouples over the N output rows: every row solves the same
symmetric system ``M v = s_row`` whose matrix is the Gram matrix of the
stacked features [Z2; Z1; 1] (plus lam on the leading N^2 diagonal entries),
so one factorization serves all rows.  M is typically rank-deficient
(duplicate product pairs at least); solutions are minimum-norm.

:func:`fit` streams: it lifts a chunk of samples, adds it to the Gram system
and drops it, so neither the lift nor the stacked table is ever held for all
samples.  The system is summed on the N(N+1)/2 unique products ``z_i z_j``
(i <= j), then expanded to the [Z2; Z1; 1] layout by an index gather; the
audit (:func:`loss`, :func:`gradient_norms`) sums its residual products over
the same chunks.  Memory stays O(D^2 + chunk * D) whatever the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import (
    Dictionary, feature_matrix, feature_matrix_and_derivatives, full_state_matrix,
)
from .dynamics import TrainingSet
from .linalg import _root_weights, min_norm_solve, summed_normal_equations
from .model import QuadraticModel, evaluate_cols, kron_squared_cols

__all__ = [
    "DataMatrices", "GramSystem", "lifted_chunks", "value_chunks",
    "build_data_matrices", "assemble_gram", "solve_row", "fit",
    "loss", "gradient_norms", "stationarity_gap",
]


def check_state_dim(d: Dictionary, ts: TrainingSet):
    """Raise ValueError unless the training data lives in d's state space."""
    if ts.n != d.state_dim:
        raise ValueError(
            f"training data has dimension {ts.n}, dictionary expects {d.state_dim}")


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


def quadratic_normal_equations(chunks, n: int, outputs: int, weights=None):
    """``normal_equations([z kron z; z; 1], targets, weights)`` without that table.

    ``chunks`` yields ``(samples, z (n, c), targets (outputs, c))`` as
    :func:`lifted_chunks` does; ``weights`` has one entry per sample of the
    whole set, or is None.  Each chunk's table holds the unique products
    z_i z_j (i <= j), then z, then 1; the sums are expanded to the
    (N^2 + N + 1) layout of [z kron z; z; 1] by one index gather.  Weighted,
    the chunk's table is scaled in place by sqrt(w), as ``(z_i z_j) sqrt(w)``,
    and its targets into a buffer reused across chunks, so the sums are the
    symmetric products of :func:`qendy.linalg.normal_equations` and a chunk
    makes no table-sized temporary.  Weights must be finite and >= 0;
    anything else raises ValueError.
    """
    unique = n * (n + 1) // 2
    size = unique + n + 1
    root = None if weights is None else _root_weights(weights)
    buffer, scaled = np.empty((size, 0)), np.empty((outputs, 0))

    def tables():
        nonlocal buffer, scaled
        for samples, z, targets in chunks:
            width = z.shape[1]
            if buffer.shape[1] < width:
                buffer = np.empty((size, width))
                if root is not None:
                    scaled = np.empty((outputs, width))
            table = buffer[:, :width]
            w = None if root is None else root[samples]
            row = 0
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n):
                    block = table[row:row + n - i]
                    np.multiply(z[i], z[i:], out=block)
                    if w is not None:  # while the block is still in cache
                        block *= w
                    row += n - i
                table[unique:-1] = z
                table[-1] = 1.0
                if w is not None:
                    table[unique:] *= w
                    targets = np.multiply(targets, w, out=scaled[:, :width])
            yield samples, table, targets

    matrix, rhs = summed_normal_equations(tables(), size, outputs)
    rows = _table_rows(n)
    return matrix[rows][:, rows], rhs[rows]


def _check_lifted(d: Dictionary, samples: slice, what: str, lifted: np.ndarray):
    """Raise ValueError, naming the basis entry and the sample by its index in
    the training set, at the first non-finite entry of a lifted chunk."""
    if not np.isfinite(lifted).all():
        entry, sample = np.argwhere(~np.isfinite(lifted))[0]
        raise ValueError(
            f"basis entry {entry} ({d.names[entry]}) has a non-finite lifted "
            f"{what} ({float(lifted[entry, sample])!r}) at sample "
            f"{samples.start + sample}")


def lifted_chunks(d: Dictionary, ts: TrainingSet):
    """Lift a training set through the dictionary, ``_CHUNK`` samples at a time.

    Yields ``(samples, z1, zdot)`` per chunk: the slice of the chunk's
    samples and their values and time derivatives (N, c) from one pass of the
    dictionary's program.  Raises ValueError, naming the basis entry and the
    sample by its index in ``ts``, when a lifted value or lifted derivative
    is not finite (an overflow, say); the overflow itself is not warned.
    """
    check_state_dim(d, ts)
    for samples in _chunks(ts.m):
        with np.errstate(over="ignore", invalid="ignore"):
            z1, zdot = feature_matrix_and_derivatives(
                d, ts.states[samples], ts.derivatives[samples])
        _check_lifted(d, samples, "value", z1)
        _check_lifted(d, samples, "time derivative", zdot)
        yield samples, z1, zdot


def value_chunks(d: Dictionary, ts: TrainingSet):
    """:func:`lifted_chunks` with the state derivatives xdot (n, c) in place
    of the lifted ones: yields ``(samples, z1, xdot)``, with the same check."""
    check_state_dim(d, ts)
    for samples in _chunks(ts.m):
        with np.errstate(over="ignore", invalid="ignore"):
            z1 = feature_matrix(d, ts.states[samples])
        _check_lifted(d, samples, "value", z1)
        yield samples, z1, ts.derivatives[samples].T


@dataclass(frozen=True, eq=False)
class DataMatrices:
    """Lifted training data: z1 (N, m) and zdot (N, m).

    ``z2`` (N^2, m) is built on each access; the fit itself never needs it.
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
    def basis_size(self) -> int:
        return self.zdot.shape[0]

    @property
    def sample_count(self) -> int:
        return self.zdot.shape[1]

    def chunks(self):
        """``(samples, z1, zdot)`` per chunk of samples, as :func:`lifted_chunks`
        yields them, but as views of the held arrays."""
        for samples in _chunks(self.sample_count):
            yield samples, self.z1[:, samples], self.zdot[:, samples]


def build_data_matrices(d: Dictionary, ts: TrainingSet) -> DataMatrices:
    """The chunks of :func:`lifted_chunks` gathered into (N, m) arrays, for
    callers that need the whole lift; it raises the same named errors."""
    z1, zdot = np.empty((d.size, ts.m)), np.empty((d.size, ts.m))
    for samples, z1_chunk, zdot_chunk in lifted_chunks(d, ts):
        z1[:, samples], zdot[:, samples] = z1_chunk, zdot_chunk
    return DataMatrices(z1, zdot)


@dataclass(frozen=True, eq=False)
class GramSystem:
    """The shared normal-equation system: matrix (D, D), rhs (D, N).

    D = N^2 + N + 1.  Block order of the rows/columns is products, then
    dictionary entries, then the constant; ``rhs[:, r]`` is the right-hand
    side for output row r.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    sample_count: int
    basis_size: int


def _gram_system(chunks, n: int, m: int, lam: float) -> GramSystem:
    """The shared system summed over ``chunks`` of m samples of an N-entry lift."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")
    matrix, rhs = quadratic_normal_equations(chunks, n, n)
    if lam > 0.0:
        idx = np.arange(n * n)
        matrix[idx, idx] += lam
    return GramSystem(matrix, rhs, m, n)


def assemble_gram(dm: DataMatrices, lam: float = 0.0) -> GramSystem:
    """Build the shared system; lam shifts only the product-block diagonal."""
    return _gram_system(dm.chunks(), dm.basis_size, dm.sample_count, lam)


def solve_row(gs: GramSystem, row: int) -> np.ndarray:
    """Minimum-norm coefficient vector for one output row (0-based).

    Layout of the result: N^2 quadratic coefficients, N linear, 1 constant.
    """
    if not 0 <= row < gs.basis_size:
        raise ValueError(f"row must be in [0, {gs.basis_size}), got {row}")
    return min_norm_solve(gs.matrix, gs.rhs[:, row])


def fit(d: Dictionary, ts: TrainingSet, *, lam: float = 0.0,
        force_c_zero: bool = False, rcond=None, g=None) -> QuadraticModel:
    """Fit a quadratic embedding model to a training set.

    The training set is lifted chunk by chunk into the Gram system
    (:func:`lifted_chunks`), with the same sums as :func:`assemble_gram` of
    :func:`build_data_matrices`.  ``force_c_zero`` removes the constant
    feature from the regression (its row and column are deleted before
    solving), which cuts down redundant representations when the dictionary
    already spans constants.  ``g`` overrides the state-recovery matrix; by
    default the coordinates must appear in the dictionary.  ``rcond``
    overrides the pseudoinverse cutoff.
    """
    gs = _gram_system(lifted_chunks(d, ts), d.size, ts.m, lam)
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


def _residuals(model: QuadraticModel, chunks):
    """(z1, zdot - model(z1)) for each chunk ``(samples, z1, zdot)``."""
    for _, z, zdot in chunks:
        yield z, zdot - evaluate_cols(model, z)


def loss(model: QuadraticModel, chunks, lam: float = 0.0):
    """(residual, residual + lam * ||A||_F^2) for a model on lifted data.

    ``chunks`` yields ``(samples, z1, zdot)`` as :func:`lifted_chunks` and
    :meth:`DataMatrices.chunks` do, so the sum streams like the fit.
    """
    residual = sum((float(np.sum(r ** 2)) for _, r in _residuals(model, chunks)), 0.0)
    return residual, residual + float(lam) * float(np.sum(model.a ** 2))


def gradient_norms(model: QuadraticModel, dm: DataMatrices, lam: float = 0.0):
    """Max-abs entries of the loss gradients w.r.t. (A, B, C).

    Computed directly from the data matrices (not via the assembled Gram
    system), so this doubles as an independent stationarity check.  With the
    residual R = Zdot - A Z2 - B Z1 - C 1^T, summed over sample chunks:

        dL/dA = -2 R Z2^T + 2 lam A
        dL/dB = -2 R Z1^T
        dL/dC = -2 R 1
    """
    n = dm.basis_size
    r_z2, r_z1, r_1 = np.zeros((n, n * n)), np.zeros((n, n)), np.zeros(n)
    for z, r in _residuals(model, dm.chunks()):
        r_z2 += r @ kron_squared_cols(z).T
        r_z1 += r @ z.T
        r_1 += r.sum(axis=1)
    grad_a = 2.0 * (lam * model.a - r_z2)
    return (float(np.abs(grad_a).max()), 2.0 * float(np.abs(r_z1).max()),
            2.0 * float(np.abs(r_1).max()))


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
