"""Data matrices, Gram assembly, decoupled min-norm solves, and the fit."""

import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qendy.approx import BoxQuadrature, convergence_study, limit_gram_system
from qendy.baselines import gedmd_fit, sindy_fit
from qendy.dictionary import (
    Dictionary, augment, feature_matrix, feature_matrix_and_derivatives,
    feature_time_derivatives,
)
from qendy.dynamics import TrainingSet, VectorField, exact_derivatives, sample_uniform
from qendy.fitting import (
    _CHUNK, DataMatrices, _table_rows, assemble_gram, build_data_matrices, fit,
    gradient_norms, lifted_chunks, loss, quadratic_normal_equations, solve_row,
    stationarity_gap, value_chunks,
)
from qendy.linalg import min_norm_solve, normal_equations
from qendy.model import extract_rhs_many, kron_squared_cols
from qendy.systems import (
    pendulum, pendulum_dictionary, thomas, thomas_dictionary, thomas_extended_dictionary,
)

PENDULUM_B_ROW2 = np.array([0.0, -0.1, -1.0, 0.0])


def _pendulum_training(m=100, box=1.0, seed=0):
    pts = sample_uniform([(-box, box), (-box, box)], m, seed=seed)
    return exact_derivatives(pendulum(c=0.1), pts)


@pytest.fixture(scope="module")
def wide():
    """thomas15 (N=15) lifted at m=2e4: (dictionary, training set, data matrices)."""
    d = thomas_extended_dictionary()
    ts = exact_derivatives(thomas(0.25, 0.15),
                           sample_uniform([(-5.0, 5.0)] * 3, 20000, seed=1))
    return d, ts, build_data_matrices(d, ts)


def _table_bound(d, m):
    """A quarter of the [z kron z; z; 1] table: streamed passes stay below it."""
    return (d.size ** 2 + d.size + 1) * m * 8 / 4


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# data matrices


def test_data_matrices_single_pendulum_sample():
    ts = TrainingSet(states=np.array([[0.0, 1.0]]),
                     derivatives=np.array([[1.0, -0.1]]),
                     provenance="exact")
    dm = build_data_matrices(pendulum_dictionary(), ts)
    assert np.abs(dm.z1[:, 0] - np.array([0.0, 1.0, 0.0, 1.0])).max() < 1e-15
    # J(x) xdot with J rows [1,0; 0,1; cos x1, 0; -sin x1, 0] at x1=0
    assert np.abs(dm.zdot[:, 0] - np.array([1.0, -0.1, 1.0, 0.0])).max() < 1e-15


def test_data_matrices_scalar_dictionary():
    d = Dictionary.from_strings(1, ["x1"])
    ts = TrainingSet(states=np.array([[2.0]]), derivatives=np.array([[0.0]]),
                     provenance="exact")
    dm = build_data_matrices(d, ts)
    assert dm.z1[0, 0] == 2.0
    assert dm.z2[0, 0] == 4.0
    assert dm.zdot[0, 0] == 0.0


def test_z2_columns_are_kron_of_z1():
    dm = build_data_matrices(pendulum_dictionary(), _pendulum_training(m=20))
    for k in range(20):
        z = dm.z1[:, k]
        assert np.abs(dm.z2[:, k] - np.kron(z, z)).max() < 1e-14


# ---------------------------------------------------------------------------
# Gram assembly


def test_gram_hand_sums_single_function():
    # d = [x], samples x in {1, 2}: R built from sums of z^4, z^3, z^2, z, m
    d = Dictionary.from_strings(1, ["x1"])
    ts = TrainingSet(states=np.array([[1.0], [2.0]]),
                     derivatives=np.zeros((2, 1)), provenance="exact")
    gs = assemble_gram(build_data_matrices(d, ts))
    expected = np.array([[17.0, 9.0, 5.0], [9.0, 5.0, 3.0], [5.0, 3.0, 2.0]])
    assert np.abs(gs.matrix - expected).max() == 0.0


def test_gram_lambda_hits_product_block_only():
    dm = build_data_matrices(pendulum_dictionary(), _pendulum_training(m=15))
    base = assemble_gram(dm, lam=0.0).matrix
    reg = assemble_gram(dm, lam=0.5).matrix
    diff = reg - base
    n2 = 16  # N^2 for the four-function dictionary
    assert np.abs(diff - 0.5 * np.diag([1.0] * n2 + [0.0] * 5)).max() == 0.0


def test_gram_is_symmetric_psd():
    dm = build_data_matrices(pendulum_dictionary(), _pendulum_training(m=40))
    gs = assemble_gram(dm)
    r = gs.matrix
    assert np.abs(r - r.T).max() < 1e-12 * np.abs(r).max()
    eigs = np.linalg.eigvalsh(r)
    assert eigs.min() > -1e-8 * np.abs(r).max()


def test_gram_equals_augmented_basis_gram():
    """R is the Gram matrix of the quadratically augmented basis."""
    d = pendulum_dictionary()
    ts = _pendulum_training(m=30)
    gs = assemble_gram(build_data_matrices(d, ts))
    aug = augment(d).as_dictionary()
    phi = feature_matrix(aug, ts.states)
    assert np.abs(gs.matrix - phi @ phi.T).max() < 1e-9


def test_gram_rhs_is_augmented_cross_column():
    """Column ell of S matches column N^2+ell of the augmented cross matrix."""
    d = pendulum_dictionary()
    ts = _pendulum_training(m=30)
    gs = assemble_gram(build_data_matrices(d, ts))
    aug = augment(d).as_dictionary()
    phi = feature_matrix(aug, ts.states)
    phi_dot = feature_time_derivatives(aug, ts.states, ts.derivatives)
    cross = phi @ phi_dot.T
    for ell in range(4):
        assert np.abs(gs.rhs[:, ell] - cross[:, 16 + ell]).max() < 1e-9


# ---------------------------------------------------------------------------
# row solves


def test_solve_row_identity_system():
    d = Dictionary.from_strings(1, ["x1"])
    ts = TrainingSet(states=np.array([[1.0]]), derivatives=np.array([[1.0]]),
                     provenance="exact")
    gs = assemble_gram(build_data_matrices(d, ts))
    v = solve_row(gs, 0)
    assert v.shape == (3,)
    # reconstruction: v . [z^2, z, 1] at z=1 must reproduce zdot=1
    assert abs(v.sum() - 1.0) < 1e-12


def test_solve_row_pendulum_decoupled_display():
    """Row 2 of the pendulum system is pure B: [0, -0.1, -1, 0]."""
    # A wide sampling box keeps the trig/polynomial near-dependencies of the
    # basis well away from the pseudoinverse cutoff; see test_fit_small_box
    # for the tight-box behaviour of the same data.
    ts = _pendulum_training(m=100, box=3.0)
    gs = assemble_gram(build_data_matrices(pendulum_dictionary(), ts))
    v = solve_row(gs, 1)
    a_part, b_part, c_part = v[:16], v[16:20], v[20]
    assert np.abs(b_part - PENDULUM_B_ROW2).max() < 1e-6
    assert np.abs(a_part).max() < 1e-6
    assert abs(c_part) < 1e-6


def test_solve_rows_match_brute_force_oracle():
    """Each v_ell equals the generic min-norm LS solution on the raw data."""
    rng = np.random.default_rng(20)
    d = Dictionary.from_strings(2, ["x1", "x2", "x1*x2"])
    pts = rng.uniform(-1, 1, size=(15, 2))
    ts = exact_derivatives(VectorField.from_exprs(2, ["x2", "-x1"]), pts)
    dm = build_data_matrices(d, ts)
    gs = assemble_gram(dm)
    stacked = np.vstack([dm.z2, dm.z1, np.ones((1, 15))])
    for ell in range(3):
        v = solve_row(gs, ell)
        expected, *_ = np.linalg.lstsq(stacked.T, dm.zdot[ell], rcond=None)
        scale = max(np.linalg.norm(expected), 1.0)
        assert np.linalg.norm(v - expected) < 1e-8 * scale, f"row {ell}"


# ---------------------------------------------------------------------------
# fit


def test_fit_pendulum_exact_recovery():
    ts = _pendulum_training(m=100, box=1.0)
    model = fit(pendulum_dictionary(), ts)
    # the embedded field is recovered exactly as a function even on the
    # tight box, where individual coefficients wobble at ~1e-3
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 20),
                                np.linspace(-1, 1, 20)), axis=-1).reshape(-1, 2)
    sup = np.abs(extract_rhs_many(model, grid) - pendulum(c=0.1).many(grid)).max()
    assert sup < 1e-6, f"sup={sup:.2e}"
    assert model.metadata["m"] == 100
    assert model.metadata["provenance"] == "exact"


def test_fit_small_box():
    """Tight-box fits recover the field even when coefficients are noisy."""
    ts = _pendulum_training(m=100, box=1.0)
    model = fit(pendulum_dictionary(), ts)
    assert np.abs(model.b[1] - PENDULUM_B_ROW2).max() < 1e-2
    wide = fit(pendulum_dictionary(), _pendulum_training(m=100, box=3.0))
    assert np.abs(wide.b[1] - PENDULUM_B_ROW2).max() < 1e-6
    assert np.abs(wide.a[1]).max() < 1e-6


def test_fit_zero_field_gives_zero_model():
    zero = VectorField.from_exprs(2, ["0", "0"])
    ts = exact_derivatives(zero, sample_uniform([(-1, 1)] * 2, 30, seed=3))
    model = fit(pendulum_dictionary(), ts)
    assert np.abs(model.a).max() < 1e-10
    assert np.abs(model.b).max() < 1e-10
    assert np.abs(model.c).max() < 1e-10


def test_fit_force_c_zero():
    ts = _pendulum_training(m=50)
    model = fit(pendulum_dictionary(), ts, force_c_zero=True)
    assert np.abs(model.c).max() == 0.0
    assert model.metadata["force_c_zero"] is True


def test_fit_loss_is_tiny_for_representable_system():
    ts = _pendulum_training(m=100)
    model = fit(pendulum_dictionary(), ts)
    dm = build_data_matrices(pendulum_dictionary(), ts)
    residual, regularized = loss(model, dm.chunks())
    assert residual < 1e-12 * np.sum(dm.zdot ** 2)
    assert regularized == residual


def test_loss_zero_model_equals_zdot_norm():
    ts = _pendulum_training(m=30)
    dm = build_data_matrices(pendulum_dictionary(), ts)
    model = fit(pendulum_dictionary(), ts)
    zero = dataclasses.replace(model, a=np.zeros_like(model.a),
                               b=np.zeros_like(model.b), c=np.zeros_like(model.c))
    residual, _ = loss(zero, dm.chunks())
    assert abs(residual - np.sum(dm.zdot ** 2)) < 1e-9


def test_fitted_model_is_local_minimum():
    """Perturbing any single entry of A does not decrease the loss."""
    ts = _pendulum_training(m=40)
    d = pendulum_dictionary()
    model = fit(d, ts)
    dm = build_data_matrices(d, ts)
    base, _ = loss(model, dm.chunks())
    rng = np.random.default_rng(21)
    for _ in range(25):
        i = rng.integers(0, model.a.shape[0])
        j = rng.integers(0, model.a.shape[1])
        for delta in (1e-3, -1e-3):
            a = model.a.copy()
            a[i, j] += delta
            bumped, _ = loss(dataclasses.replace(model, a=a), dm.chunks())
            assert bumped >= base - 1e-15


# ---------------------------------------------------------------------------
# stationarity and regularization


def test_gradients_vanish_at_fit():
    for lam in (0.0, 0.1, 1.0):
        ts = _pendulum_training(m=60)
        d = pendulum_dictionary()
        model = fit(d, ts, lam=lam)
        dm = build_data_matrices(d, ts)
        assert stationarity_gap(model, dm, lam=lam) < 1e-8


def test_gradient_norms_nonzero_off_optimum():
    ts = _pendulum_training(m=60)
    d = pendulum_dictionary()
    model = fit(d, ts)
    off = dataclasses.replace(model, b=model.b + 0.05)
    dm = build_data_matrices(d, ts)
    grads = gradient_norms(off, dm)
    assert max(grads) > 1e-3


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_lambda_that_is_not_finite_and_non_negative_is_rejected(lam):
    # nan ran the whole fit into a nan loss; inf overflowed the Gram matrix.
    ts = _pendulum_training(m=20)
    d = pendulum_dictionary()
    message = r"lambda must be a finite number >= 0, got (nan|inf|-1\.0)"
    with pytest.raises(ValueError, match=message):
        fit(d, ts, lam=lam)
    with pytest.raises(ValueError, match=message):
        assemble_gram(build_data_matrices(d, ts), lam)


def test_regularization_monotone_in_lambda():
    ts = _pendulum_training(m=80)
    d = pendulum_dictionary()
    norms = []
    for lam in (0.0, 0.1, 1.0, 10.0):
        model = fit(d, ts, lam=lam)
        norms.append(np.linalg.norm(model.a))
    for lo, hi in zip(norms, norms[1:]):
        assert hi <= lo + 1e-12, f"{norms}"


def test_min_norm_null_component():
    ts = _pendulum_training(m=100)
    d = pendulum_dictionary()
    dm = build_data_matrices(d, ts)
    gs = assemble_gram(dm)
    from qendy.linalg import SymmetricPinvSolver
    solver = SymmetricPinvSolver(gs.matrix)
    for ell in range(4):
        v = solve_row(gs, ell)
        leak = np.linalg.norm(solver.null_component(v))
        assert leak < 1e-8 * max(np.linalg.norm(v), 1e-30)


def test_fit_dimension_mismatch():
    ts = _pendulum_training(m=10)
    d = Dictionary.from_strings(1, ["x1"])
    with pytest.raises(ValueError):
        fit(d, ts)


def test_build_data_matrices_rejects_non_finite_lift():
    d = Dictionary.from_strings(1, ["x1", "exp(x1^3)"])
    overflow = TrainingSet(np.array([[0.5], [10.0], [1.0]]), np.ones((3, 1)))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"basis entry 1 \(exp\(x1\^3\)\).* value .*sample 1"):
        build_data_matrices(d, overflow)
    # exp(8.9^3) is finite, its derivative 3 x^2 exp(x^3) is not.
    rate_overflow = TrainingSet(np.array([[0.5], [1.0], [8.9]]), np.ones((3, 1)))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"basis entry 1 .*time derivative .*sample 2"):
        build_data_matrices(d, rate_overflow)


def test_fit_rejects_overflowed_gram_matrix():
    # x1 = 1e200 lifts to a finite value, but its square and the Gram matrix
    # overflow; the solver must say so instead of failing inside LAPACK.
    d = Dictionary.from_strings(1, ["x1"])
    ts = TrainingSet(np.array([[0.5], [1e200]]), np.ones((2, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite.*rescale"):
        fit(d, ts)


def test_data_matrices_hold_only_the_lift(wide):
    d = pendulum_dictionary()
    ts = _pendulum_training(m=30)
    dm = build_data_matrices(d, ts)
    z1, zdot = feature_matrix_and_derivatives(d, ts.states, ts.derivatives)
    assert np.array_equal(dm.z1, z1) and np.array_equal(dm.zdot, zdot)
    assert np.array_equal(dm.z2, kron_squared_cols(z1))
    # The Gram system streams over sample chunks: no (D, m) table is built.
    d, ts, dm = wide
    peak = _peak_bytes(lambda: assemble_gram(build_data_matrices(d, ts)))
    assert peak < _table_bound(d, dm.sample_count)


def test_value_chunks_are_the_lifted_values_with_the_state_derivatives():
    d = pendulum_dictionary()
    ts = _pendulum_training(m=2 * _CHUNK + 7)
    pairs = list(zip(value_chunks(d, ts), lifted_chunks(d, ts), strict=True))
    assert len(pairs) == 3
    for (samples, z1, xdot), (lifted_samples, lifted_z1, _) in pairs:
        assert samples == lifted_samples
        assert np.array_equal(z1, lifted_z1)
        assert np.array_equal(xdot, ts.derivatives[samples].T)


def test_stationarity_gap_streams_over_sample_chunks(wide):
    d, ts, dm = wide
    model = fit(d, ts)
    peak = _peak_bytes(lambda: stationarity_gap(model, dm))
    assert peak < _table_bound(d, dm.sample_count)
    assert stationarity_gap(model, dm) < 1e-8


@pytest.mark.parametrize("m", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
@pytest.mark.parametrize("weighted", [False, True])
def test_quadratic_normal_equations_match_the_table(m, weighted):
    rng = np.random.default_rng(m)
    z = rng.normal(size=(5, m))
    targets = rng.normal(size=(5, m))
    weights = rng.uniform(0.1, 2.0, m) if weighted else None
    matrix, rhs = quadratic_normal_equations(DataMatrices(z, targets).chunks(), 5, 5,
                                             weights)
    table = np.vstack([kron_squared_cols(z), z, np.ones((1, m))])  # [z kron z; z; 1]
    want_matrix, want_rhs = normal_equations(table, targets, weights)
    assert matrix.shape == want_matrix.shape and rhs.shape == want_rhs.shape
    assert np.abs(matrix - want_matrix).max() <= 1e-13 * np.abs(want_matrix).max()
    assert np.abs(rhs - want_rhs).max() <= 1e-13 * np.abs(want_rhs).max()
    if not weighted:  # the unweighted chunks are symmetric products
        assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("m", [1, _CHUNK + 5, 2 * _CHUNK + 5])
def test_weighted_quadratic_normal_equations_are_symmetric_and_match_lstsq(m):
    # Every chunk's table and targets are scaled by sqrt(w) in place, so the
    # Gram matrix is a sum of symmetric products and the solve is weighted
    # least squares on the sqrt(w)-scaled rows of [z kron z; z; 1].
    rng = np.random.default_rng(m + 1)
    z = rng.normal(size=(3, m))
    targets = rng.normal(size=(3, m))
    weights = rng.uniform(0.0, 2.0, m)
    matrix, rhs = quadratic_normal_equations(DataMatrices(z, targets).chunks(), 3, 3,
                                             weights)
    assert np.array_equal(matrix, matrix.T)
    root = np.sqrt(weights)
    table = np.vstack([kron_squared_cols(z), z, np.ones((1, m))]) * root
    want, *_ = np.linalg.lstsq(table.T, (targets * root).T, rcond=None)
    got = min_norm_solve(matrix, rhs)
    assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("bad, shown", [(-1.0, "-1.0"), (np.nan, "nan"), (-np.inf, "-inf")])
def test_quadratic_normal_equations_refuse_bad_weights_by_name(bad, shown):
    z = np.ones((2, _CHUNK + 3))
    weights = np.ones(_CHUNK + 3)
    weights[_CHUNK + 1] = bad  # in the second chunk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            quadratic_normal_equations(DataMatrices(z, z).chunks(), 2, 2, weights)
    assert str(err.value) == f"weights must be finite numbers >= 0, got {shown}"


def test_quadratic_normal_equations_overflow_reaches_the_solver_unwarned():
    z = np.array([[0.5, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, _ = quadratic_normal_equations(
            DataMatrices(z, np.ones((1, 2))).chunks(), 1, 1)
        with pytest.raises(ValueError, match="non-finite.*rescale"):
            min_norm_solve(matrix, np.ones(matrix.shape[0]))


def _expanded_gradient_norms(model, dm, lam):
    """Reference: the expanded gradient formulas on the whole (N^2, m) block."""
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


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("case", ["pendulum", "thomas15"])
def test_residual_gradients_match_the_expanded_formulas(case, lam, wide):
    if case == "pendulum":
        d, ts = pendulum_dictionary(), _pendulum_training(m=60)
        dm = build_data_matrices(d, ts)
    else:
        d, ts, dm = wide
    model = fit(d, ts, lam=lam)
    off = dataclasses.replace(model, b=model.b + 0.05)
    got = gradient_norms(off, dm, lam)
    want = _expanded_gradient_norms(off, dm, lam)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w


def test_loss_sums_over_chunks_like_the_whole_residual():
    d = pendulum_dictionary()
    model = fit(d, _pendulum_training(m=60), lam=0.1)
    off = dataclasses.replace(model, b=model.b + 0.05)
    for m in [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]:
        ts = _pendulum_training(m=m, seed=m)
        dm = build_data_matrices(d, ts)
        residual = np.sum((dm.zdot - off.a @ dm.z2 - off.b @ dm.z1 - off.c[:, None]) ** 2)
        got, regularized = loss(off, dm.chunks(), 0.1)
        assert loss(off, lifted_chunks(d, ts), 0.1) == (got, regularized)
        assert abs(got - residual) <= 1e-12 * residual
        assert regularized == got + 0.1 * float(np.sum(off.a ** 2))
        want = _expanded_gradient_norms(off, dm, 0.1)
        for g, w in zip(gradient_norms(off, dm, 0.1), want):
            assert abs(g - w) <= 1e-12 * w


# ---------------------------------------------------------------------------
# the streamed pass against the whole lift

STREAM_SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


def _whole_lift_normal_equations(d, points, derivatives, weights=None):
    """Reference: the Gram system as it was summed before the lift streamed.
    One lift of every sample, then the unique-product table over column
    slices of it, ``_CHUNK`` samples at a time."""
    z, targets = feature_matrix_and_derivatives(d, points, derivatives)
    n, m = z.shape
    unique = n * (n + 1) // 2
    size = unique + n + 1
    matrix = np.zeros((size, size))
    rhs = np.zeros((size, targets.shape[0]))
    buffer = np.empty((size, min(m, _CHUNK)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _CHUNK):
            cols = slice(start, min(start + _CHUNK, m))
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


@pytest.mark.parametrize("m", STREAM_SIZES)
def test_streamed_fit_is_bit_equal_to_the_whole_lift(m):
    d = thomas_dictionary()
    n = d.size
    ts = exact_derivatives(thomas(0.25, 0.15),
                           sample_uniform([(-2.0, 2.0)] * 3, m, seed=m))
    for lam, force_c_zero in [(0.0, False), (0.1, True)]:
        model = fit(d, ts, lam=lam, force_c_zero=force_c_zero)
        matrix, rhs = _whole_lift_normal_equations(d, ts.states, ts.derivatives)
        matrix[np.arange(n * n), np.arange(n * n)] += lam
        kept = matrix.shape[0] - int(force_c_zero)
        coeffs = min_norm_solve(matrix[:kept, :kept], rhs[:kept])
        c = np.zeros(n) if force_c_zero else coeffs[-1]
        assert model.a.tobytes() == coeffs[:n * n].T.tobytes()
        assert model.b.tobytes() == coeffs[n * n:n * n + n].T.tobytes()
        assert model.c.tobytes() == c.tobytes()


@pytest.mark.parametrize("m", STREAM_SIZES)
def test_streamed_limit_is_bit_equal_to_the_whole_lift(m):
    d, field = thomas_dictionary(), thomas(0.25, 0.15)
    points = sample_uniform([(-2.0, 2.0)] * 3, m, seed=m)
    weights = np.random.default_rng(m).uniform(0.1, 2.0, m)
    got = limit_gram_system(d, field, SimpleNamespace(nodes_weights=lambda: (points, weights)))
    want = _whole_lift_normal_equations(d, points, field.many(points), weights)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_streamed_study_errors_are_bit_equal_to_the_whole_lift():
    d, field, box = pendulum_dictionary(), pendulum(c=0.1), [(-1.0, 1.0)] * 2
    study = convergence_study(d, field, box, STREAM_SIZES, runs=2, seed=3, order=6)
    nodes, weights = BoxQuadrature(box, 6).nodes_weights()
    rstar, sstar = _whole_lift_normal_equations(d, nodes, field.many(nodes), weights)
    for i, m in enumerate(STREAM_SIZES):
        for j in range(2):
            seed = np.random.SeedSequence(entropy=3, spawn_key=(i, j))
            points = sample_uniform(box, m, seed)
            matrix, rhs = _whole_lift_normal_equations(d, points, field.many(points))
            assert study.e_r[i, j] == float(np.abs(matrix / m - rstar).mean())
            e_s = np.abs(rhs / m - sstar).mean(axis=0)
            assert study.e_s[i, j].tobytes() == e_s.tobytes()


@pytest.mark.parametrize("lift", [build_data_matrices, fit, gedmd_fit, sindy_fit])
def test_non_finite_lift_is_named_by_its_index_in_the_training_set(lift):
    # The overflow of exp is not warned: the named error is the one message.
    d = Dictionary.from_strings(1, ["x1", "exp(x1^3)"])
    states = np.full((3 * _CHUNK, 1), 0.5)
    bad = 2 * _CHUNK + 5  # in the third chunk
    states[bad] = 10.0
    ts = TrainingSet(states, np.ones_like(states))
    with pytest.raises(
            ValueError, match=rf"basis entry 1 .* lifted value .*at sample {bad}$"):
        lift(d, ts)


def test_fit_memory_does_not_grow_with_the_sample_count():
    d, field = thomas_extended_dictionary(), thomas(0.25, 0.15)
    peaks = []
    for m in (20_000, 200_000):
        ts = exact_derivatives(field, sample_uniform([(-5.0, 5.0)] * 3, m, seed=1))
        peaks.append(_peak_bytes(lambda: fit(d, ts)))
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
