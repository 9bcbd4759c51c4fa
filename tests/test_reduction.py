"""PCA reduction, reconstruction optimality, and the identification pipeline."""

import numpy as np
import pytest

from qendy.reduction import (
    PcaBasis, pca_fit, project, reconstruct, reduced_identification_pipeline,
    synthetic_lift_data,
)


def _subspace_gap(a_rows, b_rows) -> float:
    """sin of the largest principal angle between two row-spanned subspaces."""
    qa, _ = np.linalg.qr(np.asarray(a_rows).T)
    qb, _ = np.linalg.qr(np.asarray(b_rows).T)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


# ---------------------------------------------------------------------------
# PCA basics


def test_pca_line_data_single_component():
    """Points on a line: one component, direction +-(1,2)/sqrt(5)."""
    t = np.linspace(-1.0, 1.0, 50)
    data = np.column_stack([3.0 + t, -1.0 + 2.0 * t])
    basis = pca_fit(data, 1)
    assert np.abs(basis.mean - np.array([3.0, -1.0])).max() < 1e-12
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert min(np.abs(basis.components[0] - direction).max(),
               np.abs(basis.components[0] + direction).max()) < 1e-12


def test_pca_components_orthonormal():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 6))
    basis = pca_fit(data, 4)
    gram = basis.components @ basis.components.T
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((30, 5))
    a = pca_fit(data, 3)
    b = pca_fit(data.copy(), 3)
    assert np.array_equal(a.components, b.components)
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_k_validation():
    data = np.random.default_rng(2).standard_normal((10, 4))
    with pytest.raises(ValueError):
        pca_fit(data, 0)
    with pytest.raises(ValueError):
        pca_fit(data, 5)
    with pytest.raises(ValueError):
        pca_fit(np.zeros(7), 1)


def test_project_reconstruct_round_trip_on_reduced():
    """project after reconstruct is the identity on reduced coordinates."""
    rng = np.random.default_rng(3)
    basis = pca_fit(rng.standard_normal((25, 8)), 3)
    reduced = rng.standard_normal((12, 3))
    back = project(reconstruct(reduced, basis), basis)
    assert np.abs(back - reduced).max() < 1e-12


def test_reconstruct_project_reproduces_in_subspace_data():
    """Full-rank k reproduces every snapshot exactly."""
    rng = np.random.default_rng(4)
    data = rng.standard_normal((20, 5))
    basis = pca_fit(data, 5)
    assert np.abs(reconstruct(project(data, basis), basis) - data).max() < 1e-10


def test_pca_reconstruction_error_is_discarded_energy():
    """Frobenius reconstruction error^2 equals the sum of cut sigma^2."""
    rng = np.random.default_rng(5)
    data = rng.standard_normal((30, 6))
    basis = pca_fit(data, 2)
    recon = reconstruct(project(data, basis), basis)
    err_sq = np.sum((data - recon) ** 2)
    mean, sigma, _ = data.mean(axis=0), None, None
    sigma = np.linalg.svd(data - data.mean(axis=0), compute_uv=False)
    assert abs(err_sq - np.sum(sigma[2:] ** 2)) < 1e-9


def test_pca_beats_random_projections():
    """Rank-2 PCA reconstruction error is minimal over random rank-2 bases."""
    rng = np.random.default_rng(6)
    data = rng.standard_normal((40, 7))
    basis = pca_fit(data, 2)
    best = np.sum((data - reconstruct(project(data, basis), basis)) ** 2)
    mean = data.mean(axis=0)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
        other = PcaBasis(mean, q.T, basis.singular_values)
        err = np.sum((data - reconstruct(project(data, other), other)) ** 2)
        assert err >= best - 1e-9


# ---------------------------------------------------------------------------
# synthetic benchmark data


def test_synthetic_lift_shapes_and_embedding():
    snapshots, embedding = synthetic_lift_data(num_samples=100, lift_dim=20,
                                               noise=0.0)
    assert snapshots.shape == (100, 20)
    assert embedding.shape == (3, 20)
    gram = embedding @ embedding.T
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_synthetic_lift_deterministic():
    a, ea = synthetic_lift_data(num_samples=50, lift_dim=10, seed=42)
    b, eb = synthetic_lift_data(num_samples=50, lift_dim=10, seed=42)
    assert np.array_equal(a, b)
    assert np.array_equal(ea, eb)


def test_pca_recovers_exact_lift_subspace():
    """Noise-free lifted snapshots: PCA(3) spans the embedding rows."""
    snapshots, embedding = synthetic_lift_data(num_samples=300, lift_dim=40,
                                               noise=0.0)
    basis = pca_fit(snapshots, 3)
    gap = _subspace_gap(basis.components, embedding)
    assert gap < 1e-8, f"gap={gap:.2e}"


@pytest.mark.parametrize("noise", [-1e-3, np.nan, np.inf])
def test_synthetic_lift_rejects_a_noise_that_is_not_finite_and_non_negative(noise):
    with pytest.raises(ValueError, match=r"^noise must be a finite number >= 0, got "):
        synthetic_lift_data(num_samples=20, lift_dim=5, noise=noise)


def test_pca_subspace_robust_to_small_noise():
    snapshots, embedding = synthetic_lift_data(num_samples=500, lift_dim=100,
                                               noise=1e-3)
    basis = pca_fit(snapshots, 3)
    gap = _subspace_gap(basis.components, embedding)
    assert gap < 1e-2, f"gap={gap:.2e}"


# ---------------------------------------------------------------------------
# identification pipeline


def test_pipeline_rotation_eigenvalues():
    """A lifted circular orbit yields a linear part with eigenvalues near +-i."""
    rng = np.random.default_rng(7)
    # exactly two cycles of uniform samples, so the snapshot mean vanishes
    # and mean-centering does not shift the orbit off the unit circle
    dt = np.pi / 157.0
    t = np.arange(628) * dt
    circle = np.column_stack([np.cos(t), np.sin(t)])
    q, _ = np.linalg.qr(rng.standard_normal((50, 2)))
    data = circle @ q.T
    result = reduced_identification_pipeline(data, k=2, train_fraction=0.8,
                                             dt=dt)
    eigs = np.sort_complex(np.linalg.eigvals(result.model.b))
    assert np.abs(eigs - np.array([-1j, 1j])).max() < 1e-3, f"eigs={eigs}"
    assert result.forecast_rel_rms < 1e-2


def test_pipeline_benchmark_defaults():
    snapshots, _ = synthetic_lift_data()
    result = reduced_identification_pipeline(snapshots, k=3,
                                             train_fraction=0.8, dt=0.1)
    assert result.n_train == 400
    assert result.reduced.shape == (500, 3)
    assert result.predicted.shape == (500, 3)
    assert result.spectral_gap > 10.0
    assert result.train_rel_rms < 0.1
    assert result.forecast_rel_rms < 0.1


def test_pipeline_full_fraction_reuses_train_error():
    snapshots, _ = synthetic_lift_data(num_samples=120, lift_dim=20)
    result = reduced_identification_pipeline(snapshots, k=3,
                                             train_fraction=1.0, dt=0.1)
    assert result.n_train == 120
    assert result.forecast_rel_rms == result.train_rel_rms


def test_pipeline_validation():
    snapshots, _ = synthetic_lift_data(num_samples=50, lift_dim=10)
    with pytest.raises(ValueError):
        reduced_identification_pipeline(snapshots, k=3, train_fraction=0.0,
                                        dt=0.1)
    with pytest.raises(ValueError):
        reduced_identification_pipeline(snapshots, k=3, train_fraction=0.02,
                                        dt=0.1)
    with pytest.raises(ValueError):
        reduced_identification_pipeline(snapshots, k=0, train_fraction=0.5,
                                        dt=0.1)


def test_pipeline_orthogonal_embedding_invariance():
    """Rotating the ambient embedding does not change the error metrics."""
    rng = np.random.default_rng(8)
    snapshots, _ = synthetic_lift_data(num_samples=200, lift_dim=30, noise=0.0)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    rotated = snapshots @ q
    a = reduced_identification_pipeline(snapshots, 3, 0.8, 0.1)
    b = reduced_identification_pipeline(rotated, 3, 0.8, 0.1)
    assert abs(a.train_rel_rms - b.train_rel_rms) < 1e-8
    assert abs(a.forecast_rel_rms - b.forecast_rel_rms) < 1e-8
    assert np.abs(a.singular_spectrum - b.singular_spectrum).max() < 1e-8


def test_pca_fit_is_the_pipeline_basis():
    data, _ = synthetic_lift_data(seed=4)
    for k in (2, 3):
        basis = pca_fit(data, k)
        result = reduced_identification_pipeline(data, k, 0.8, 0.1)
        for field in ("mean", "components", "singular_values"):
            assert np.array_equal(getattr(basis, field), getattr(result.basis, field))
