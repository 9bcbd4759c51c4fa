"""Symmetric pseudoinverse solver against dense numpy oracles."""

import warnings

import numpy as np
import pytest

from qendy.linalg import (
    SymmetricPinvSolver, default_rcond, min_norm_solve, normal_equations,
)


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
    assert SymmetricPinvSolver(m, rcond=0.0).rank == 3


@pytest.mark.parametrize("rcond", [np.nan, np.inf, 1.0, 1e300, -1e-12])
def test_rcond_outside_the_unit_interval_is_rejected(rcond):
    # nan or >= 1 kept no eigenvalue (a zero solution), a negative rcond every one.
    with pytest.raises(ValueError, match=r"rcond must be a finite number in \[0, 1\)"):
        min_norm_solve(np.eye(2), np.ones(2), rcond)


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


# ---------------------------------------------------------------------------
# normal equations


def test_weighted_normal_equations_match_lstsq_on_scaled_rows():
    rng = np.random.default_rng(11)
    table = rng.standard_normal((5, 40))
    targets = rng.standard_normal((3, 40))
    weights = rng.uniform(0.1, 2.0, 40)
    matrix, rhs = normal_equations(table, targets, weights)
    assert np.allclose(matrix, table @ np.diag(weights) @ table.T, rtol=1e-13, atol=1e-13)
    root = np.sqrt(weights)
    want, *_ = np.linalg.lstsq((table * root).T, (targets * root).T, rcond=None)
    assert np.abs(min_norm_solve(matrix, rhs) - want).max() < 1e-12
    # One target vector gives one right-hand side vector.
    _, rhs_one = normal_equations(table, targets[0], weights)
    assert np.allclose(rhs_one, rhs[:, 0], rtol=1e-14, atol=1e-14)


def test_unweighted_normal_equations_are_the_plain_products_bit_for_bit():
    rng = np.random.default_rng(12)
    table = rng.standard_normal((7, 300))
    targets = rng.standard_normal((2, 300))
    matrix, rhs = normal_equations(table, targets)
    assert np.array_equal(matrix, table @ table.T)
    assert np.array_equal(rhs, table @ targets.T)


def test_overflowed_normal_equations_warn_nothing_and_the_solver_rejects_them():
    table = np.array([[0.5, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, rhs = normal_equations(table, np.ones(2))
    assert not np.isfinite(matrix).all()
    with pytest.raises(ValueError, match="non-finite"):
        min_norm_solve(matrix, rhs)


def test_weighted_normal_equations_are_the_symmetric_product_of_root_scaled_rows():
    # Rows scaled by sqrt(w): the Gram matrix is a symmetric product, exactly
    # symmetric, and both sums are the plain products of the scaled rows.
    rng = np.random.default_rng(13)
    table = rng.standard_normal((9, 500))
    targets = rng.standard_normal((4, 500))
    weights = rng.uniform(0.0, 3.0, 500)
    weights[::7] = 0.0  # a zero weight drops its sample
    matrix, rhs = normal_equations(table, targets, weights)
    assert np.array_equal(matrix, matrix.T)
    root = np.sqrt(weights)
    scaled = table * root
    assert np.array_equal(matrix, scaled @ scaled.T)
    assert np.array_equal(rhs, scaled @ (targets * root).T)
    want, *_ = np.linalg.lstsq(scaled.T, (targets * root).T, rcond=None)
    assert np.abs(min_norm_solve(matrix, rhs) - want).max() < 1e-12


@pytest.mark.parametrize("bad, shown", [(-0.5, "-0.5"), (np.nan, "nan"), (np.inf, "inf")])
def test_weights_that_are_negative_or_not_finite_are_refused_by_name(bad, shown):
    # A negative weight makes the Gram matrix indefinite and has no square root.
    weights = np.ones(6)
    weights[4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            normal_equations(np.ones((2, 6)), np.ones(6), weights)
    assert str(err.value) == f"weights must be finite numbers >= 0, got {shown}"
