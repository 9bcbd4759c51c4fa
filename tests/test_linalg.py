"""Symmetric pseudoinverse solver against dense numpy oracles."""

import numpy as np
import pytest

from qendy.linalg import SymmetricPinvSolver, default_rcond, min_norm_solve


def _random_psd(rng, dim, rank):
    f = rng.standard_normal((dim, rank))
    return f @ f.T


def test_default_rcond_scales_with_dimension():
    assert default_rcond(21) == 21 * np.finfo(float).eps * 64
    assert default_rcond(3) < default_rcond(300)


def test_identity_system():
    solver = SymmetricPinvSolver(np.eye(3))
    assert solver.rank == 3
    x = solver.solve(np.array([1.0, 0.0, 0.0]))
    assert np.abs(x - np.array([1.0, 0.0, 0.0])).max() < 1e-14


def test_rank_one_min_norm():
    # [[1,1],[1,1]] v = [2,2] has a line of solutions; min-norm is [1,1]
    solver = SymmetricPinvSolver(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert solver.rank == 1
    v = solver.solve(np.array([2.0, 2.0]))
    assert np.abs(v - np.array([1.0, 1.0])).max() < 1e-12


def test_solve_matches_numpy_pinv():
    rng = np.random.default_rng(10)
    for dim, rank in [(5, 5), (8, 4), (12, 7)]:
        m = _random_psd(rng, dim, rank)
        rhs = m @ rng.standard_normal(dim)  # consistent right-hand side
        solver = SymmetricPinvSolver(m)
        expected = np.linalg.pinv(m) @ rhs
        assert np.abs(solver.solve(rhs) - expected).max() < 1e-8


def test_solve_matrix_rhs_matches_columnwise():
    rng = np.random.default_rng(11)
    m = _random_psd(rng, 9, 5)
    rhs = m @ rng.standard_normal((9, 4))
    solver = SymmetricPinvSolver(m)
    block = solver.solve(rhs)
    for j in range(4):
        assert np.abs(block[:, j] - solver.solve(rhs[:, j])).max() < 1e-12


def test_min_norm_property():
    """Adding any null-space vector to the solution only increases the norm."""
    rng = np.random.default_rng(12)
    m = _random_psd(rng, 10, 6)
    rhs = m @ rng.standard_normal(10)
    solver = SymmetricPinvSolver(m)
    v = solver.solve(rhs)
    base_residual = np.linalg.norm(m @ v - rhs)
    assert base_residual < 1e-9
    for _ in range(20):
        w = rng.standard_normal(10)
        null_part = solver.null_component(w)
        if np.linalg.norm(null_part) < 1e-12:
            continue
        other = v + null_part
        assert np.linalg.norm(m @ other - rhs) < 1e-9 + base_residual * 2
        assert np.linalg.norm(other) > np.linalg.norm(v)


def test_null_component_of_solution_vanishes():
    rng = np.random.default_rng(13)
    m = _random_psd(rng, 10, 4)
    rhs = m @ rng.standard_normal(10)
    solver = SymmetricPinvSolver(m)
    v = solver.solve(rhs)
    leak = np.linalg.norm(solver.null_component(v))
    assert leak < 1e-10 * max(np.linalg.norm(v), 1.0)


def test_rank_detection_with_exact_duplicates():
    # duplicated rows/columns mimic redundant product pairs
    rng = np.random.default_rng(14)
    f = rng.standard_normal((4, 6))
    f[3] = f[2]
    m = f @ f.T
    solver = SymmetricPinvSolver(m)
    assert solver.rank == 3


def test_rcond_override_drops_small_directions():
    m = np.diag([1.0, 1e-4, 1e-12])
    assert SymmetricPinvSolver(m).rank == 3
    assert SymmetricPinvSolver(m, rcond=1e-8).rank == 2
    assert SymmetricPinvSolver(m, rcond=1e-2).rank == 1


def test_min_norm_solve_wrapper():
    m = np.array([[2.0, 0.0], [0.0, 0.0]])
    v = min_norm_solve(m, np.array([4.0, 0.0]))
    assert np.abs(v - np.array([2.0, 0.0])).max() < 1e-14


def test_non_finite_matrix_is_rejected():
    for bad in (np.inf, np.nan):
        matrix = np.eye(3)
        matrix[1, 2] = matrix[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricPinvSolver(matrix)
