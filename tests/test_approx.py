"""Quadrature, weighted best approximation, the data-rich limit, and
convergence studies."""

from types import SimpleNamespace

import numpy as np
import pytest

from qendy.approx import (
    BoxQuadrature, ConvergenceStudy, convergence_study, limit_gram_system,
)
from qendy.dictionary import (
    Dictionary, feature_matrix, feature_matrix_and_derivatives, feature_time_derivatives,
)
from qendy.dynamics import VectorField, exact_derivatives, sample_uniform
from qendy.expr import Expr, Program, parse
from qendy.fitting import (
    DataMatrices, assemble_gram, build_data_matrices, quadratic_normal_equations,
)
from qendy.linalg import min_norm_solve, normal_equations
from qendy.model import kron_squared_cols
from qendy.systems import pendulum, pendulum_dictionary, thomas, thomas_extended_dictionary

MONOMIALS = [parse("1"), parse("x1"), parse("x1*x1"), parse("x1*x1*x1")]


# ---------------------------------------------------------------------------
# best approximation in the weighted L2 space of a measure: an oracle that
# evaluates each function on the nodes, outside any dictionary's program


def _points(points, weights=None):
    """The empirical measure on ``points`` (m,) or (m, n), unit weights by default."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    weights = np.ones(len(points)) if weights is None else weights
    return SimpleNamespace(nodes_weights=lambda: (points, weights))


def _values(f, points):
    """Values on ``points`` of an expression tree, a callable on point batches,
    or an array of samples, one per point."""
    if isinstance(f, Expr):
        return Program((f,), points.shape[1]).values(points)[0]
    return f(points) if callable(f) else np.asarray(f, dtype=float)


def _sampled(basis, target, space):
    """(basis table (K, M), target values (M,), weights (M,)) on the nodes."""
    points, weights = space.nodes_weights()
    table = np.stack([_values(f, points) for f in basis])
    return table, _values(target, points), weights


def _gram_system(basis, target, space):
    """Normal equations of best approximation: (matrix (K, K), rhs (K,))."""
    return normal_equations(*_sampled(basis, target, space))


def _best_approximation(basis, target, space):
    """Minimum-norm coefficients of the best approximation of target."""
    return min_norm_solve(*_gram_system(basis, target, space))


def _approximation_error(basis, coefficients, target, space):
    """Weighted squared error <f - sum c_i phi_i, f - sum c_i phi_i>."""
    table, target_values, weights = _sampled(basis, target, space)
    residual = target_values - np.asarray(coefficients, dtype=float) @ table
    return float(np.sum(weights * residual ** 2))


# ---------------------------------------------------------------------------
# quadrature spaces


def test_box_quadrature_weights_sum_to_volume():
    """The weights are the probability measure: the box has volume 1."""
    pts, w = BoxQuadrature(((-1.0, 1.0),), order=5).nodes_weights()
    assert pts.shape == (5, 1)
    assert abs(w.sum() - 1.0) < 1e-14


def test_box_quadrature_normalized_is_probability():
    _, w = BoxQuadrature(((-1.0, 1.0), (0.0, 4.0)), order=6).nodes_weights()
    assert abs(w.sum() - 1.0) < 1e-13


def test_box_quadrature_polynomial_exactness():
    """Order n integrates degree 2n-1 exactly: x^3 on [0, 1] with two nodes."""
    pts, w = BoxQuadrature(((0.0, 1.0),), order=2).nodes_weights()
    assert abs(np.sum(w * pts[:, 0] ** 3) - 0.25) < 1e-15


def _per_axis_nodes_weights(box, order):
    """The tensor rule with the Gauss-Legendre rule built afresh per axis."""
    axis_nodes, axis_weights = [], []
    for lo, hi in box:
        xi, wq = np.polynomial.legendre.leggauss(order)
        axis_nodes.append(0.5 * (hi - lo) * xi + 0.5 * (hi + lo))
        axis_weights.append(0.5 * (hi - lo) * wq)
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    points = np.column_stack([g.ravel() for g in grids])
    weights = np.ones(1)
    for wa in axis_weights:
        weights = np.multiply.outer(weights, wa).ravel()
    return points, weights / float(np.prod([hi - lo for lo, hi in box]))


@pytest.mark.parametrize("order", [1, 2, 20])
def test_box_quadrature_builds_one_rule_for_every_axis_bit_for_bit(order):
    box = ((-1.0, 1.0), (0.5, 4.0), (-3.0, -2.75))
    got = BoxQuadrature(box, order=order).nodes_weights()
    for g, w in zip(got, _per_axis_nodes_weights(box, order)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_box_quadrature_builds_its_rule_once_and_hands_it_out_read_only():
    space = BoxQuadrature(((-1.0, 1.0), (0.0, 2.0)), order=4)
    first, again = space.nodes_weights(), space.nodes_weights()
    for a, b in zip(first, again):
        assert a is b
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_box_quadrature_validation():
    with pytest.raises(ValueError):
        BoxQuadrature(((1.0, -1.0),))
    with pytest.raises(ValueError):
        BoxQuadrature(((0.0, 1.0),), order=0)


# ---------------------------------------------------------------------------
# best approximation


def test_gram_system_legendre_moments():
    """<1,1>=1, <1,x>=0, <x,x>=1/3 under the uniform probability on [-1,1]."""
    space = BoxQuadrature(((-1.0, 1.0),), order=8)
    matrix, rhs = _gram_system(MONOMIALS[:2], parse("x1*x1"), space)
    assert np.abs(matrix - np.array([[1.0, 0.0], [0.0, 1.0 / 3.0]])).max() < 1e-13
    assert np.abs(rhs - np.array([1.0 / 3.0, 0.0])).max() < 1e-13


def test_best_approximation_of_square_by_affine():
    """The L2([-1,1]) projection of x^2 onto {1, x} is the constant 1/3."""
    space = BoxQuadrature(((-1.0, 1.0),), order=8)
    coeffs = _best_approximation(MONOMIALS[:2], parse("x1*x1"), space)
    assert np.abs(coeffs - np.array([1.0 / 3.0, 0.0])).max() < 1e-13
    err = _approximation_error(MONOMIALS[:2], coeffs, parse("x1*x1"), space)
    assert abs(err - 4.0 / 45.0) < 1e-13


def test_best_approximation_beats_other_candidates():
    """No coefficient vector does better than the projection of sin(pi x)."""
    space = BoxQuadrature(((-1.0, 1.0),), order=30)
    target = lambda pts: np.sin(np.pi * pts[:, 0])
    coeffs = _best_approximation(MONOMIALS, target, space)
    best_err = _approximation_error(MONOMIALS, coeffs, target, space)
    assert best_err > 1e-6  # sin is not a cubic
    assert np.abs(coeffs[[0, 2]]).max() < 1e-12  # odd target, odd projection
    rng = np.random.default_rng(17)
    for _ in range(100):
        other = coeffs + 1e-3 * rng.standard_normal(4)
        assert _approximation_error(MONOMIALS, other, target, space) >= best_err
    for _ in range(100):
        other = rng.standard_normal(4)
        assert _approximation_error(MONOMIALS, other, target, space) >= best_err


def test_best_approximation_in_span_is_interpolation():
    space = BoxQuadrature(((-1.0, 1.0),), order=10)
    coeffs = _best_approximation(MONOMIALS, parse("x1*x1*x1"), space)
    assert np.abs(coeffs - np.array([0.0, 0.0, 0.0, 1.0])).max() < 1e-12


def test_discrete_target_samples():
    pts = np.linspace(0.0, 1.0, 11)
    space = _points(pts)
    samples = pts ** 2
    coeffs = _best_approximation([parse("x1*x1")], samples, space)
    assert abs(coeffs[0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# data-rich limit of the fitting system


def test_limit_gram_scalar_dictionary():
    """d = [x] on uniform [-1,1]: moments 1/5, 1/3, 1 fill the limit Gram."""
    d = Dictionary.from_strings(1, ["x1"])
    field = VectorField.from_exprs(1, ["-x1"])
    space = BoxQuadrature(((-1.0, 1.0),), order=12)
    rstar, sstar = limit_gram_system(d, field, space)
    expected_r = np.array([[0.2, 0.0, 1.0 / 3.0],
                           [0.0, 1.0 / 3.0, 0.0],
                           [1.0 / 3.0, 0.0, 1.0]])
    assert np.abs(rstar - expected_r).max() < 1e-13
    assert np.abs(sstar[:, 0] - np.array([0.0, -1.0 / 3.0, 0.0])).max() < 1e-13


def test_limit_gram_order_doubling_is_converged():
    d = pendulum_dictionary()
    field = pendulum(c=0.1)
    box = ((-1.0, 1.0), (-1.0, 1.0))
    r20, s20 = limit_gram_system(d, field, BoxQuadrature(box, order=20))
    r40, s40 = limit_gram_system(d, field, BoxQuadrature(box, order=40))
    assert np.abs(r20 - r40).max() < 1e-12
    assert np.abs(s20 - s40).max() < 1e-12


def test_limit_gram_matches_empirical_assembly():
    """On a shared discrete measure both Gram assembly routes coincide."""
    d = pendulum_dictionary()
    field = pendulum(c=0.1)
    pts = sample_uniform([(-1.0, 1.0)] * 2, 50, seed=4)
    space = _points(pts, weights=np.full(50, 1.0 / 50.0))
    rstar, sstar = limit_gram_system(d, field, space)
    gs = assemble_gram(build_data_matrices(d, exact_derivatives(field, pts)))
    assert np.abs(rstar - gs.matrix / 50.0).max() < 1e-12
    assert np.abs(sstar - gs.rhs / 50.0).max() < 1e-12


def test_limit_gram_is_the_weighted_fitting_system_on_the_nodes():
    d = pendulum_dictionary()
    field = pendulum(c=0.1)
    space = BoxQuadrature(((-1.0, 1.0), (-2.0, 2.0)), order=9)
    points, weights = space.nodes_weights()
    lift = DataMatrices(*feature_matrix_and_derivatives(d, points, field.many(points)))
    want = quadratic_normal_equations(lift.chunks(), d.size, d.size, weights)
    for got, expected in zip(limit_gram_system(d, field, space), want):
        assert got.tobytes() == expected.tobytes()


def test_limit_gram_rejects_a_non_finite_lift_by_name():
    # exp(x1) overflows on the nodes of a +-1000 box: the limit names the
    # entry instead of returning non-finite R*/S*.
    d = Dictionary.from_strings(2, ["x1", "x2", "exp(x1)"])
    space = BoxQuadrature(((-1000.0, 1000.0),) * 2, order=6)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"basis entry 2 \(exp\(x1\)\) has a non-finite lifted value"):
        limit_gram_system(d, pendulum(c=0.1), space)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_limit_gram_refuses_a_measure_with_bad_weights(bad):
    # A negative weight would make R* indefinite; sqrt(w) has no value there.
    points = sample_uniform([(-1.0, 1.0)] * 2, 30, seed=6)
    weights = np.full(30, 1.0 / 30.0)
    weights[17] = bad
    with pytest.raises(ValueError, match=r"^weights must be finite numbers >= 0, got "):
        limit_gram_system(pendulum_dictionary(), pendulum(c=0.1), _points(points, weights))


def test_limit_gram_of_thomas15_matches_the_whole_table_product():
    # Oracle: the weighted Gram of the whole [z kron z; z; 1] table on the
    # order-20 nodes as one GEMM, weights applied once, no chunks, no sqrt.
    d, field = thomas_extended_dictionary(), thomas(0.25, 0.15)
    space = BoxQuadrature(((-1.0, 1.0),) * 3, order=20)
    nodes, weights = space.nodes_weights()
    z = feature_matrix(d, nodes)
    table = np.vstack([kron_squared_cols(z), z, np.ones((1, weights.size))])
    weighted = table * weights
    want_r = weighted @ table.T
    want_s = weighted @ feature_time_derivatives(d, nodes, field.many(nodes)).T
    rstar, sstar = limit_gram_system(d, field, space)
    assert np.array_equal(rstar, rstar.T)
    for got, want in ((rstar, want_r), (sstar, want_s)):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# ---------------------------------------------------------------------------
# convergence study


def _small_study(**kwargs):
    return convergence_study(pendulum_dictionary(), pendulum(c=0.1),
                             ((-1.0, 1.0), (-1.0, 1.0)), [100, 10000],
                             runs=5, seed=0, **kwargs)


def test_convergence_errors_shrink_with_sample_size():
    st = _small_study()
    assert st.e_r.shape == (2, 5)
    assert st.e_s.shape == (2, 5, 4)
    assert st.e_r_mean[0] > st.e_r_mean[1]
    assert st.e_s_mean[0] > st.e_s_mean[1]
    assert st.slope_r < -0.3
    assert st.slope_s < -0.3


def test_convergence_study_deterministic_across_workers():
    serial = _small_study(max_workers=1)
    threaded = _small_study(max_workers=3)
    assert np.array_equal(serial.e_r, threaded.e_r)
    assert np.array_equal(serial.e_s, threaded.e_s)


def test_convergence_study_relative_rescaling():
    absolute = _small_study()
    relative = _small_study(relative=True)
    rstar, _ = limit_gram_system(pendulum_dictionary(), pendulum(c=0.1),
                                 BoxQuadrature(((-1.0, 1.0), (-1.0, 1.0))))
    ratio = relative.e_r * np.abs(rstar).mean() / absolute.e_r
    assert np.abs(ratio - 1.0).max() < 1e-12


def test_convergence_study_rejects_bad_args():
    d = pendulum_dictionary()
    field = pendulum(c=0.1)
    box = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        convergence_study(d, field, box, [100, 0], runs=3)
    with pytest.raises(ValueError):
        convergence_study(d, field, box, [100], runs=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_convergence_study_needs_at_least_one_worker(workers):
    with pytest.raises(ValueError, match=f"^need at least one worker, got {workers}$"):
        convergence_study(pendulum_dictionary(), pendulum(c=0.1), ((-1.0, 1.0),) * 2,
                          [10, 20], runs=1, max_workers=workers)


def test_runs_csv_layout(tmp_path):
    st = _small_study()
    path = tmp_path / "runs.csv"
    st.write_runs_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,run,e_R,e_s1,e_s2,e_s3,e_s4"
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "0"
    assert float(first[2]) == st.e_r[0, 0]


def test_aggregate_csv_layout(tmp_path):
    st = _small_study()
    path = tmp_path / "agg.csv"
    st.write_aggregate_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,e_R_mean,e_s_mean"
    assert lines[1].startswith("100,")
    assert float(lines[2].split(",")[1]) == st.e_r_mean[1]


def test_csv_rewrite_is_byte_identical(tmp_path):
    st = _small_study()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    st.write_runs_csv(a)
    st.write_runs_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_convergence_study_needs_two_distinct_sizes():
    box = ((-1.0, 1.0), (-1.0, 1.0))
    for sizes in ([100], [100, 100]):
        with pytest.raises(ValueError, match="two distinct sample sizes"):
            convergence_study(pendulum_dictionary(), pendulum(c=0.1), box, sizes, runs=2)
