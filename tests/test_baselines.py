"""SINDy and gEDMD baselines: displays, consistency, eigenfunctions."""

import json

import numpy as np
import pytest

from qendy.baselines import (
    GedmdModel, SindyModel, gedmd_fit, gedmd_from_json,
    gedmd_to_json, koopman_eigenfunctions, sindy_fit, sindy_from_json,
    sindy_rhs_many, sindy_to_json, state_field,
)
from qendy.dictionary import (
    Dictionary, feature_map, feature_matrix, feature_matrix_and_derivatives,
    feature_time_derivatives, full_state_matrix,
)
from qendy.dynamics import (
    IntegrationBlowupError, TrainingSet, VectorField, exact_derivatives, rk4_integrate,
    sample_trajectory, sample_uniform,
)
from qendy.fitting import _CHUNK, fit
from qendy.linalg import min_norm_solve, normal_equations
from qendy.model import QuadraticModel, extract_rhs_many, model_from_json, model_to_json
from qendy.systems import (
    pendulum, pendulum_dictionary, quartic_decoupled, quartic_dictionary,
    rational_decay, rational_dictionary, thomas, thomas_dictionary,
)

# minimum-norm regression target of -x/(1+x) on [x, 1/(1+x), x/(1+x)^2] over
# the unit interval, computed with a normalized order-40 Gauss rule
RATIONAL_XI_STAR = np.array([-0.29914052, 0.00835665, -0.84426716])

QUARTIC_THETA = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 8.0]])


def _pendulum_training(m=100, seed=0):
    pts = sample_uniform([(-1.0, 1.0)] * 2, m, seed=seed)
    return exact_derivatives(pendulum(c=0.1), pts)


def _quartic_training(m=50, seed=3):
    pts = sample_uniform([(-2.0, 2.0)] * 2, m, seed=seed)
    return exact_derivatives(quartic_decoupled(), pts)


# ---------------------------------------------------------------------------
# SINDy


def test_sindy_pendulum_coefficients():
    """In-span target: xi rows are (0,1,0,0) and (0,-0.1,-1,0)."""
    model = sindy_fit(pendulum_dictionary(), _pendulum_training())
    expected = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -0.1, -1.0, 0.0]])
    dev = np.abs(model.xi - expected).max()
    assert dev < 1e-8, f"dev={dev:.2e}"


def test_sindy_rhs_at_upright_point():
    model = sindy_fit(pendulum_dictionary(), _pendulum_training())
    out = model.xi @ feature_map(model.dictionary, np.array([np.pi / 2, 0.0]))
    assert np.abs(out - np.array([0.0, -1.0])).max() < 1e-8


def test_sindy_rhs_many_matches_scalar():
    model = sindy_fit(pendulum_dictionary(), _pendulum_training(m=40))
    pts = np.random.default_rng(5).uniform(-1, 1, size=(8, 2))
    batch = sindy_rhs_many(model, pts)
    for k in range(8):
        one = model.xi @ feature_map(model.dictionary, pts[k])
        assert np.abs(batch[k] - one).max() < 1e-12


# dx1 = exp(x1) + ...: the path overflows through exp and the power, and its
# last stages take sin of an infinity.
EXPLODING = Dictionary.from_strings(2, ["x1", "x2", "exp(x1)", "sin(x1)", "x1^3", "x2^-2"])
EXPLODING_XI = np.array([[0.0, 0.1, 1.0, 0.5, 0.2, 0.0], [0.3, 0.0, 0.0, -1.0, 0.0, 0.01]])


def test_sindy_path_blows_up_like_a_batch_of_one(array_rk4_integrate):
    model = SindyModel(EXPLODING_XI, EXPLODING)
    errors = []
    # The first is the field simulate integrates for a SINDy model file.
    for integrate, rhs in ((rk4_integrate, state_field(model)),
                           (array_rk4_integrate,
                            lambda x: sindy_rhs_many(model, x[None, :])[0])):
        with pytest.raises(IntegrationBlowupError) as info:
            integrate(rhs, [1.0, 2.0], 5.0, 0.01)
        errors.append(info.value)
    assert errors[0].step == errors[1].step > 1
    assert errors[0].partial.states.tobytes() == errors[1].partial.states.tobytes()


def test_sindy_in_span_residual_vanishes():
    ts = _pendulum_training(m=80, seed=11)
    model = sindy_fit(pendulum_dictionary(), ts)
    resid = np.sum((sindy_rhs_many(model, ts.states) - ts.derivatives) ** 2)
    assert resid < 1e-10 * np.sum(ts.derivatives ** 2)


def test_sindy_out_of_span_residual_persists():
    """-x/(1+x) = -1 + 1/(1+x) needs a constant the dictionary lacks."""
    pts = sample_uniform([(0.0, 1.0)], 200, seed=2)
    ts = exact_derivatives(rational_decay(), pts)
    model = sindy_fit(rational_dictionary(), ts)
    resid = np.sum((sindy_rhs_many(model, ts.states) - ts.derivatives) ** 2)
    assert resid > 1e-12 * np.sum(ts.derivatives ** 2)


def test_sindy_threshold_prunes_and_refits():
    model = sindy_fit(pendulum_dictionary(), _pendulum_training(), threshold=0.5)
    assert model.xi[0, 1] != 0.0
    assert np.abs(np.delete(model.xi[0], 1)).max() == 0.0
    # the damping coefficient -0.1 falls below the cut
    assert model.xi[1, 1] == 0.0
    assert model.xi[1, 2] != 0.0


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
def test_sindy_threshold_that_is_not_finite_and_non_negative_is_rejected(threshold):
    # nan and negative thresholds kept every coefficient without a word.
    with pytest.raises(ValueError, match=r"threshold must be a finite number >= 0"):
        sindy_fit(pendulum_dictionary(), _pendulum_training(), threshold=threshold)


def test_sindy_monte_carlo_consistency():
    """Out-of-span regressions approach the continuum solution as m grows."""
    d = rational_dictionary()
    vf = rational_decay()
    sample_sizes = [100, 1000, 10000]
    means = []
    for i, m in enumerate(sample_sizes):
        errors = []
        for s in range(20):
            pts = sample_uniform([(0.0, 1.0)], m, seed=1000 * i + s)
            model = sindy_fit(d, exact_derivatives(vf, pts))
            errors.append(np.linalg.norm(model.xi[0] - RATIONAL_XI_STAR))
        means.append(np.mean(errors))
    assert means[0] > means[1] > means[2], f"means={means}"
    slope = np.polyfit(np.log(sample_sizes), np.log(means), 1)[0]
    assert -0.7 < slope < -0.35, f"slope={slope:.3f}"


def test_sindy_dimension_mismatch():
    with pytest.raises(ValueError):
        sindy_fit(rational_dictionary(), _pendulum_training(m=10))


# ---------------------------------------------------------------------------
# gEDMD


def test_gedmd_quartic_generator_matrix():
    """phi = (x1, x2, x2^4) under (x1 - x2^4, 2 x2) gives an exact lift."""
    model = gedmd_fit(quartic_dictionary(), _quartic_training())
    dev = np.abs(model.theta - QUARTIC_THETA).max()
    assert dev < 1e-8, f"dev={dev:.2e}"


def test_gedmd_constant_function_row_is_zero():
    d = Dictionary.from_strings(1, ["1", "x1"])
    pts = sample_uniform([(0.5, 2.0)], 30, seed=7)
    from qendy.dynamics import VectorField
    ts = exact_derivatives(VectorField.from_exprs(1, ["2*x1"]), pts)
    model = gedmd_fit(d, ts)
    assert np.abs(model.theta[0]).max() < 1e-10
    assert np.abs(model.theta[1] - np.array([0.0, 2.0])).max() < 1e-10


def _gedmd_rhs(model, g, points):
    """State-space right-hand side G theta phi(x) at each row of ``points``."""
    return (g @ model.theta @ feature_matrix(model.dictionary, points)).T


def test_gedmd_reconstructs_state_field():
    """G theta phi matches the pendulum field on a grid."""
    d = pendulum_dictionary()
    model = gedmd_fit(d, _pendulum_training())
    g = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 12),
                                np.linspace(-1, 1, 12)), axis=-1).reshape(-1, 2)
    sup = np.abs(_gedmd_rhs(model, g, grid) - pendulum(c=0.1).many(grid)).max()
    assert sup < 1e-6, f"sup={sup:.2e}"


def test_gedmd_agrees_with_quadratic_fit():
    """Both identifications reproduce the same state field on the quartic system."""
    d = quartic_dictionary()
    ts = _quartic_training(m=60, seed=9)
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    linear = _gedmd_rhs(gedmd_fit(d, ts), g, ts.states)
    quadratic = extract_rhs_many(fit(d, ts, g=g), ts.states)
    assert np.abs(linear - quadratic).max() < 1e-8


# ---------------------------------------------------------------------------
# state-space fields of the identified models


@pytest.fixture(scope="module")
def thomas9_baselines():
    """SINDy (threshold 0.01) and gEDMD on thomas9, fitted on criterion 5's
    trajectory, with the array right-hand side each field replaces."""
    field = thomas(alpha=0.2, beta=0.0)
    traj = sample_trajectory(field, [1.0, -1.0, 0.0], 100.0, 2000, substeps=5)
    ts = exact_derivatives(field, traj.states)
    d = thomas_dictionary()
    sindy, gedmd = sindy_fit(d, ts, threshold=0.01), gedmd_fit(d, ts)
    g = full_state_matrix(d)
    return {"sindy": (sindy, lambda x: sindy_rhs_many(sindy, x[None, :])[0]),
            "gedmd": (gedmd, lambda x: _gedmd_rhs(gedmd, g, x[None, :])[0])}


@pytest.mark.parametrize("kind", ["sindy", "gedmd"])
def test_state_field_matches_the_array_loop(thomas9_baselines, array_rk4_integrate, kind):
    model, rhs = thomas9_baselines[kind]
    field = state_field(model)
    assert field.n == 3 and len(field.program.outputs) == 3
    for x0 in np.random.default_rng(0).uniform(-1.0, 1.0, (4, 3)):
        got = rk4_integrate(field, x0, 10.0, 0.01)
        assert got.states.tobytes() == rk4_integrate(field, x0, 10.0, 0.01).states.tobytes()
        # Bit for bit the array loop on the field's own batch of one ...
        same = array_rk4_integrate(lambda x: field.many(x[None, :])[0], x0, 10.0, 0.01)
        assert got.states.tobytes() == same.states.tobytes()
        # ... and at rounding the BLAS right-hand side, whose kernel may fuse
        # a multiply and an add into one rounding.
        want = array_rk4_integrate(rhs, x0, 10.0, 0.01).states
        assert got.states.shape == want.shape == (1001, 3)
        assert np.abs(got.states - want).max() <= 1e-12 * np.abs(want).max()


def _blowup(integrate, f, x0, t_end, dt):
    with pytest.raises(IntegrationBlowupError) as info:
        integrate(f, x0, t_end, dt)
    return info.value


def test_state_fields_blow_up_like_the_array_loop(array_rk4_integrate):
    # dx = x^2 from 2 blows up at step 53, as SINDy and as gEDMD on [x1, x1^2].
    square = Dictionary.from_strings(1, ["x1", "x1^2"])
    sindy = SindyModel(np.array([[0.0, 1.0]]), square)
    gedmd = GedmdModel(np.array([[0.0, 1.0], [0.0, 0.0]]), square)
    for model, rhs in ((sindy, lambda x: sindy_rhs_many(sindy, x[None, :])[0]),
                       (gedmd, lambda x: _gedmd_rhs(gedmd, np.eye(1, 2), x[None, :])[0])):
        got = _blowup(rk4_integrate, state_field(model), [2.0], 1000.0, 0.01)
        want = _blowup(array_rk4_integrate, rhs, [2.0], 1000.0, 0.01)
        assert got.step == want.step == 53
        assert got.partial.states.tobytes() == want.partial.states.tobytes()
    # The exploding SINDy rows as the x rows of a gEDMD generator.
    theta = np.random.default_rng(1).standard_normal((6, 6))
    theta[:2] = EXPLODING_XI
    gedmd = GedmdModel(theta, EXPLODING)
    g = full_state_matrix(EXPLODING)
    got = _blowup(rk4_integrate, state_field(gedmd), [1.0, 2.0], 5.0, 0.01)
    want = _blowup(array_rk4_integrate, lambda x: _gedmd_rhs(gedmd, g, x[None, :])[0],
                   [1.0, 2.0], 5.0, 0.01)
    assert got.step == want.step > 1
    rows = np.abs(got.partial.states - want.partial.states).max(axis=1)
    assert np.all(rows <= 1e-10 * np.abs(want.partial.states).max(axis=1))


def test_state_field_sums_every_term_in_entry_order():
    # Left to right, (1 + 1e-16) - 1 is 0; 1 + (1e-16 - 1) would leave an ulp.
    d = Dictionary.from_strings(3, ["x1", "x2", "x3"])
    field = state_field(SindyModel(np.ones((3, 3)), d))
    assert field(np.array([1.0, 1e-16, -1.0])).tolist() == [0.0, 0.0, 0.0]
    # 0 * exp(x1) at x1 = 800 is 0 * inf: nan, as a BLAS dot gives it.
    d = Dictionary.from_strings(1, ["x1", "exp(x1)"])
    field = state_field(SindyModel(np.array([[1.0, 0.0]]), d))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(field(np.array([800.0]))).all()
        assert np.isnan(np.array([[1.0, 0.0]]) @ feature_map(d, np.array([800.0]))).all()


def test_rk4_integrate_rejects_what_it_cannot_step():
    with pytest.raises(TypeError, match="^rk4_integrate needs a VectorField, got function$"):
        rk4_integrate(lambda x: -x, [1.0], 1.0, 0.1)
    model = SindyModel(np.eye(2, 4), pendulum_dictionary())
    with pytest.raises(ValueError, match=r"^expected shape \(2,\), got \(3,\)$"):
        rk4_integrate(state_field(model), [1.0, 0.0, 0.0], 1.0, 0.1)


def test_gedmd_dimension_mismatch():
    with pytest.raises(ValueError):
        gedmd_fit(rational_dictionary(), _pendulum_training(m=10))


# ---------------------------------------------------------------------------
# eigenfunctions


def test_koopman_eigenvalues_sorted():
    model = gedmd_fit(quartic_dictionary(), _quartic_training())
    funcs = koopman_eigenfunctions(model)
    values = [f.eigenvalue for f in funcs]
    assert np.abs(np.array(values) - np.array([1.0, 2.0, 8.0])).max() < 1e-8


def test_koopman_eigenvector_display():
    """Eigenvalue 1 pairs with the unit vector along (7, 0, 1)."""
    model = gedmd_fit(quartic_dictionary(), _quartic_training())
    first = koopman_eigenfunctions(model)[0]
    expected = np.array([7.0, 0.0, 1.0]) / np.sqrt(50.0)
    assert np.abs(first.coefficients - expected).max() < 1e-8


def test_koopman_eigenfunctions_satisfy_generator_identity():
    """For each pair, grad(psi) . F = eigenvalue * psi pointwise."""
    d = quartic_dictionary()
    model = gedmd_fit(d, _quartic_training())
    pts = sample_uniform([(-2.0, 2.0)] * 2, 25, seed=13)
    derivs = quartic_decoupled().many(pts)
    phi = feature_matrix(d, pts)
    phi_dot = feature_time_derivatives(d, pts, derivs)
    for func in koopman_eigenfunctions(model):
        lhs = phi_dot.T @ func.coefficients
        rhs = func.eigenvalue * (phi.T @ func.coefficients)
        assert np.abs(lhs - rhs).max() < 1e-6, f"eigenvalue {func.eigenvalue}"


def test_koopman_eigenfunction_call_matches_many():
    model = gedmd_fit(quartic_dictionary(), _quartic_training())
    func = koopman_eigenfunctions(model)[1]
    pts = np.array([[0.3, -1.2], [1.0, 0.5]])
    batch = feature_matrix(model.dictionary, pts).T @ func.coefficients
    assert abs(batch[0] - func(pts[0])) < 1e-12
    assert abs(batch[1] - func(pts[1])) < 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_sindy_json_round_trip():
    model = sindy_fit(pendulum_dictionary(), _pendulum_training(m=30))
    payload = sindy_to_json(model)
    assert payload["state_dim"] == 2
    back = sindy_from_json(payload)
    assert np.array_equal(back.xi, model.xi)
    assert back.dictionary.size == 4


def test_gedmd_json_round_trip():
    model = gedmd_fit(quartic_dictionary(), _quartic_training(m=20))
    payload = gedmd_to_json(model)
    assert np.asarray(payload["Theta"]).shape == (3, 3)
    back = gedmd_from_json(payload)
    assert np.array_equal(back.theta, model.theta)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        SindyModel(np.zeros((3, 4)), pendulum_dictionary())
    with pytest.raises(ValueError):
        GedmdModel(np.zeros((2, 2)), pendulum_dictionary())


def _model_kinds():
    """One model of each kind on the pendulum dictionary, with its writer,
    its reader, and the file key and attribute of each coefficient."""
    d = pendulum_dictionary()
    qendy = QuadraticModel(np.zeros((4, 16)), np.eye(4), np.zeros(4),
                           full_state_matrix(d), d)
    return {
        "qendy": (qendy, model_to_json, model_from_json,
                  {"A": "a", "B": "b", "C": "c", "G": "g"}),
        "sindy": (SindyModel(np.ones((2, 4)), d), sindy_to_json, sindy_from_json,
                  {"Xi": "xi"}),
        "gedmd": (GedmdModel(np.eye(4), d), gedmd_to_json, gedmd_from_json,
                  {"Theta": "theta"}),
    }


def test_every_model_kind_writes_one_layout():
    kinds = _model_kinds()
    for model, to_json, from_json, fields in kinds.values():
        payload = to_json(model)
        assert payload["state_dim"] == 2
        assert payload["dictionary"] == {"state_dim": 2,
                                         "basis": ["x1", "x2", "sin(x1)", "cos(x1)"]}
        for key, attr in fields.items():
            assert payload[key] == getattr(model, attr).tolist()
        back = from_json(json.loads(json.dumps(payload)))
        assert all(np.array_equal(getattr(back, attr), getattr(model, attr))
                   for attr in fields.values())
    assert set(model_to_json(kinds["qendy"][0])) - {"A", "B", "C", "G"} == {
        "state_dim", "dictionary", "lambda", "m", "provenance", "force_c_zero"}


@pytest.mark.parametrize("kind", ["qendy", "sindy", "gedmd"])
def test_every_model_kind_checks_each_coefficient_by_name(kind):
    model, to_json, from_json, fields = _model_kinds()[kind]
    for key, attr in fields.items():
        payload = json.loads(json.dumps(to_json(model)))
        value = payload[key]
        if isinstance(value[0], list):
            value[0][0] = None
        else:
            value[0] = None
        with pytest.raises(ValueError, match=f"^{attr} contains non-finite entries$"):
            from_json(payload)
        payload[key] = [[1.0]]
        with pytest.raises(ValueError, match=rf"^{attr} must have shape .*, got \(1, 1\)$"):
            from_json(payload)
        payload[key] = {"a": 1}
        with pytest.raises(ValueError, match=f"^{attr} must be an array of numbers$"):
            from_json(payload)


def test_gedmd_rejects_non_finite_lift_by_name():
    d = Dictionary.from_strings(1, ["x1", "exp(x1^3)"])
    overflow = TrainingSet(np.array([[0.5], [10.0], [1.0]]), np.ones((3, 1)))
    with pytest.raises(
            ValueError, match=r"basis entry 1 \(exp\(x1\^3\)\) has a non-finite lifted value"):
        gedmd_fit(d, overflow)


def test_sindy_rejects_overflowed_gram_matrix():
    d = Dictionary.from_strings(1, ["x1"])
    ts = TrainingSet(np.array([[0.5], [1e200]]), np.ones((2, 1)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        sindy_fit(d, ts)


# ---------------------------------------------------------------------------
# streamed normal equations against the whole lift and brute force


def _polynomial_case():
    """A well-conditioned dictionary (Gram condition ~10) over several chunks;
    two small terms fall under a 0.01 threshold."""
    d = Dictionary.from_strings(2, ["x1", "x2", "x1*x2", "x1^2", "x2^2"])
    field = VectorField.from_exprs(2, ["x2 - 0.1*x1*x2 + 0.004*x1^2",
                                       "-x1 + 0.5*x2^2 - 0.003*x1*x2"])
    pts = sample_uniform([(-1.0, 1.0)] * 2, 3 * _CHUNK + 7, seed=5)
    return d, exact_derivatives(field, pts)


def _normal_solve(table, targets):
    return min_norm_solve(*normal_equations(table, targets))


def _lstsq_solve(table, targets):
    return np.linalg.lstsq(table.T, targets.T, rcond=None)[0]


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("threshold", [0.0, 0.01])
def test_streamed_sindy_matches_the_whole_lift_and_lstsq(threshold):
    d, ts = _polynomial_case()
    phi = feature_matrix(d, ts.states)
    got = sindy_fit(d, ts, threshold=threshold).xi
    for solve in (_normal_solve, _lstsq_solve):
        want = solve(phi, ts.derivatives.T).T
        if threshold > 0.0:
            for r in range(want.shape[0]):
                keep = np.abs(want[r]) >= threshold
                want[r, ~keep] = 0.0
                want[r, keep] = solve(phi[keep], ts.derivatives[:, r])
        assert _relative(got, want) <= 1e-12
    assert np.count_nonzero(got) == (10 if threshold == 0.0 else 4)


def test_streamed_gedmd_matches_the_whole_lift_and_lstsq():
    d, ts = _polynomial_case()
    z1, zdot = feature_matrix_and_derivatives(d, ts.states, ts.derivatives)
    got = gedmd_fit(d, ts).theta
    for solve in (_normal_solve, _lstsq_solve):
        assert _relative(got, solve(z1, zdot).T) <= 1e-12
