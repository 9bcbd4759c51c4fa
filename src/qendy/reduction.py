"""PCA reduction of high-dimensional snapshots and identification on the
reduced coordinates.

The pipeline mirrors a common model-reduction workflow: project snapshots
onto the leading principal components, estimate time derivatives of the
reduced coordinates by finite differences, fit a quadratic model with the
identity dictionary (the reduced state is its own lift), and simulate past
the training window to judge extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, finite_diff_derivatives, rk4_integrate
from .fitting import fit
from .model import QuadraticModel, simulate
from .systems import identity_dictionary, mean_field

__all__ = [
    "PcaBasis", "pca_fit", "project", "reconstruct",
    "PipelineResult", "reduced_identification_pipeline", "synthetic_lift_data",
]


@dataclass(frozen=True, eq=False)
class PcaBasis:
    """Mean and leading right singular vectors of a snapshot array.

    ``components`` rows are unit-norm principal directions, sign-fixed so the
    largest-magnitude entry of each is positive.
    """

    mean: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray


def _pca(data, k: int):
    """(leading-k PcaBasis, full singular spectrum) of mean-centered snapshots."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected snapshots of shape (m, D), got {data.shape}")
    mean = data.mean(axis=0)
    _, sigma, vt = np.linalg.svd(data - mean, full_matrices=False)
    if not 1 <= k <= vt.shape[0]:
        raise ValueError(f"k must be in [1, {vt.shape[0]}], got {k}")
    vt = vt[:k]
    signs = np.sign(vt[np.arange(k), np.argmax(np.abs(vt), axis=1)])
    signs[signs == 0.0] = 1.0
    return PcaBasis(mean, vt * signs[:, None], sigma[:k]), sigma


def pca_fit(data, k: int) -> PcaBasis:
    """Leading-k principal component basis of mean-centered snapshots."""
    return _pca(data, k)[0]


def project(data, basis: PcaBasis) -> np.ndarray:
    """Reduced coordinates of snapshots: (m, D) in, (m, k) out."""
    data = np.asarray(data, dtype=float)
    return (data - basis.mean) @ basis.components.T


def reconstruct(reduced, basis: PcaBasis) -> np.ndarray:
    """Reconstruction from reduced coordinates: (m, k) in, (m, D) out."""
    reduced = np.asarray(reduced, dtype=float)
    return reduced @ basis.components + basis.mean


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Everything the reduced-identification pipeline produced.

    ``reduced`` are the projected snapshots, ``predicted`` the simulated
    reduced coordinates over the full horizon (training window included).
    RMS errors are relative to the RMS of the reference segment.
    """

    basis: PcaBasis
    model: QuadraticModel
    reduced: np.ndarray
    predicted: np.ndarray
    singular_spectrum: np.ndarray
    n_train: int
    train_rel_rms: float
    forecast_rel_rms: float

    @property
    def spectral_gap(self) -> float:
        """Ratio sigma_k / sigma_{k+1} across the truncation boundary."""
        k = self.basis.components.shape[0]
        if k >= self.singular_spectrum.size:
            return float("inf")
        return float(self.singular_spectrum[k - 1] / self.singular_spectrum[k])


def _rel_rms(predicted, reference) -> float:
    err = np.sqrt(np.mean((predicted - reference) ** 2))
    scale = np.sqrt(np.mean(reference ** 2))
    return float(err / scale) if scale > 0 else float(err)


def reduced_identification_pipeline(data, k: int, train_fraction: float,
                                    dt: float, lam: float = 0.0) -> PipelineResult:
    """PCA-reduce snapshots, fit a quadratic model, simulate the full horizon.

    PCA uses all snapshots; the model is fitted (finite-difference
    derivatives, identity dictionary) on the leading ``train_fraction`` of
    them and simulated from the first sample over the whole horizon, so the
    trailing part of the comparison is genuine extrapolation.
    """
    data = np.asarray(data, dtype=float)
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train fraction must be in (0, 1], got {train_fraction}")
    m = data.shape[0]
    n_train = int(round(train_fraction * m))
    if n_train < 3:
        raise ValueError("training window too short for finite differences")
    basis, sigma = _pca(data, k)
    reduced = project(data, basis)
    train_traj = Trajectory(np.arange(n_train) * dt, reduced[:n_train])
    ts = finite_diff_derivatives(train_traj)
    model = fit(identity_dictionary(k), ts, lam=lam)
    result = simulate(model, reduced[0], (m - 1) * dt, dt)
    predicted = result.z_states
    train_rel = _rel_rms(predicted[:n_train], reduced[:n_train])
    if n_train < m:
        forecast_rel = _rel_rms(predicted[n_train:], reduced[n_train:])
    else:
        forecast_rel = train_rel
    return PipelineResult(basis, model, reduced, predicted, sigma, n_train,
                          train_rel, forecast_rel)


def synthetic_lift_data(num_samples: int = 500, lift_dim: int = 100,
                        dt: float = 0.1, noise: float = 1e-3, seed: int = 0):
    """Benchmark snapshots: a 3-D limit-cycle path lifted to ``lift_dim``.

    Integrates the mean-field oscillator from a small off-attractor start (so
    the third coordinate carries real variance), embeds the path with a
    random orthonormal map, and adds Gaussian noise.  Returns
    (snapshots (m, lift_dim), embedding (3, lift_dim)).
    """
    if lift_dim < 3:
        raise ValueError("lift dimension must be at least 3")
    field = mean_field()
    path = rk4_integrate(field, np.array([0.1, 0.0, 0.05]),
                         (num_samples - 1) * dt, dt).states
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((lift_dim, 3))
    q, _ = np.linalg.qr(gaussian)
    embedding = q[:, :3].T
    snapshots = path @ embedding
    if noise > 0.0:
        snapshots = snapshots + noise * rng.standard_normal(snapshots.shape)
    return snapshots, embedding
