"""Quadratic lifted models: evaluation, simulation, extraction, reports."""

import json

import numpy as np
import pytest

from qendy.dictionary import Dictionary, feature_map
from qendy.dynamics import (
    IntegrationBlowupError, exact_derivatives, sample_trajectory, sample_uniform,
)
from qendy.fitting import build_data_matrices, fit, stationarity_gap
from qendy.model import (
    QuadraticModel, evaluate, evaluate_cols, extract_rhs, extract_rhs_many,
    hurwitz_margin, kron_squared, kron_squared_cols, load_model,
    model_from_json, model_to_json, save_model, simulate, sparsity_report,
    symmetrize,
)
from qendy.systems import (
    pendulum, pendulum_dictionary, rational_decay, rational_dictionary,
)


def hand_pendulum_model():
    """Coefficients of the exactly embedded damped pendulum in [x1, x2, sin, cos]."""
    a = np.zeros((4, 16))
    b = np.zeros((4, 4))
    a[2, 4 * 3 + 1] = 1.0    # d/dt sin x1 = cos(x1) x2
    a[3, 4 * 2 + 1] = -1.0   # d/dt cos x1 = -sin(x1) x2
    b[0, 1] = 1.0
    b[1, 1] = -0.1
    b[1, 2] = -1.0
    g = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    return QuadraticModel(a, b, np.zeros(4), g, pendulum_dictionary())


def hand_rational_model():
    """Exact embedding of dx = -x/(1+x) in [x, 1/(1+x), x/(1+x)^2]."""
    a = np.zeros((3, 9))
    a[0, 3 * 0 + 1] = -1.0
    a[1, 3 * 1 + 2] = 1.0
    a[2, 3 * 1 + 2] = -1.0
    a[2, 3 * 2 + 2] = 2.0
    g = np.array([[1.0, 0.0, 0.0]])
    return QuadraticModel(a, np.zeros((3, 3)), np.zeros(3), g,
                          rational_dictionary())


# ---------------------------------------------------------------------------
# Kronecker square


def test_kron_squared_example():
    assert np.array_equal(kron_squared([1.0, 2.0]), [1.0, 2.0, 2.0, 4.0])


def test_kron_squared_index_layout():
    """(z kron z)[N*i + j] = z_i z_j."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(5)
    k = kron_squared(z)
    for i in range(5):
        for j in range(5):
            assert k[5 * i + j] == z[i] * z[j]


def test_kron_squared_cols_matches_columnwise():
    rng = np.random.default_rng(1)
    z_cols = rng.standard_normal((4, 7))
    k = kron_squared_cols(z_cols)
    assert k.shape == (16, 7)
    for c in range(7):
        assert np.array_equal(k[:, c], kron_squared(z_cols[:, c]))


def test_kron_squared_rejects_matrices():
    with pytest.raises(ValueError):
        kron_squared(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        kron_squared_cols(np.zeros(3))


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_pendulum_hand_model():
    """At x = (0, 1) the embedded pendulum field is (1, -0.1, 1, 0)."""
    model = hand_pendulum_model()
    z = feature_map(model.dictionary, [0.0, 1.0])
    out = evaluate(model, z)
    assert np.abs(out - np.array([1.0, -0.1, 1.0, 0.0])).max() < 1e-15


def test_evaluate_rational_hand_model():
    """At x = 1 the embedded rational field is (-0.5, 0.125, 0)."""
    model = hand_rational_model()
    z = feature_map(model.dictionary, [1.0])
    out = evaluate(model, z)
    assert np.abs(out - np.array([-0.5, 0.125, 0.0])).max() < 1e-15


def test_evaluate_cols_matches_scalar():
    model = hand_pendulum_model()
    rng = np.random.default_rng(2)
    z_cols = rng.standard_normal((4, 9))
    batch = evaluate_cols(model, z_cols)
    for c in range(9):
        single = evaluate(model, z_cols[:, c])
        assert np.abs(batch[:, c] - single).max() < 1e-14


def test_constant_term_enters_evaluation():
    model = hand_rational_model()
    shifted = QuadraticModel(model.a, model.b, np.array([0.0, 3.0, 0.0]),
                             model.g, model.dictionary)
    z = feature_map(model.dictionary, [1.0])
    assert np.abs(evaluate(shifted, z) - evaluate(model, z)
                  - np.array([0.0, 3.0, 0.0])).max() < 1e-15


# ---------------------------------------------------------------------------
# extraction


def test_extract_rhs_projects_through_g():
    model = hand_pendulum_model()
    out = extract_rhs(model, [0.0, 1.0])
    assert np.abs(out - np.array([1.0, -0.1])).max() < 1e-15


def test_extract_rhs_matches_true_field_on_grid():
    model = hand_pendulum_model()
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 15),
                                np.linspace(-2, 2, 15)), axis=-1).reshape(-1, 2)
    sup = np.abs(extract_rhs_many(model, grid) - pendulum(c=0.1).many(grid)).max()
    assert sup < 1e-14, f"sup={sup:.2e}"


def test_extract_rhs_rational_matches_field():
    model = hand_rational_model()
    xs = np.linspace(0.05, 2.0, 40)[:, None]
    sup = np.abs(extract_rhs_many(model, xs) - rational_decay().many(xs)).max()
    assert sup < 1e-14, f"sup={sup:.2e}"


def test_extract_rhs_many_matches_scalar():
    model = hand_pendulum_model()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(6, 2))
    batch = extract_rhs_many(model, pts)
    for k in range(6):
        assert np.abs(batch[k] - extract_rhs(model, pts[k])).max() < 1e-14


# ---------------------------------------------------------------------------
# simulation


def test_simulate_exact_embedding_tracks_truth():
    model = hand_pendulum_model()
    traj = simulate(model, [1.0, 0.0], t_end=2.0, dt=0.01)
    truth = sample_trajectory(pendulum(c=0.1), [1.0, 0.0], 2.0, 201)
    assert traj.x_states.shape == (201, 2)
    assert np.abs(traj.times - truth.times).max() < 1e-12
    sup = np.abs(traj.x_states - truth.states).max()
    assert sup < 1e-6, f"sup={sup:.2e}"


def test_simulate_keeps_lifted_state_consistent():
    """sin^2 + cos^2 stays 1 along the exactly embedded pendulum path."""
    model = hand_pendulum_model()
    traj = simulate(model, [1.0, 0.0], t_end=2.0, dt=0.01)
    radius = traj.z_states[:, 2] ** 2 + traj.z_states[:, 3] ** 2
    assert np.abs(radius - 1.0).max() < 1e-8


def test_simulate_reembed_matches_plain_for_exact_model():
    model = hand_pendulum_model()
    plain = simulate(model, [1.0, 0.0], t_end=2.0, dt=0.01)
    pinned = simulate(model, [1.0, 0.0], t_end=2.0, dt=0.01, reembed=True)
    assert np.abs(plain.x_states - pinned.x_states).max() < 1e-6


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_blowup_raises():
    """dz = z^2 from z0 = 2 blows up before t = 1."""
    d = Dictionary.from_strings(1, ["x1"])
    model = QuadraticModel(np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1),
                           np.array([[1.0]]), d)
    with pytest.raises(IntegrationBlowupError) as exc:
        simulate(model, [2.0], t_end=1.0, dt=0.01)
    assert 0 < exc.value.step <= 100


def test_simulate_rejects_non_finite_start():
    with pytest.raises(ValueError, match="start state"):
        simulate(hand_rational_model(), [np.nan], t_end=1.0, dt=0.1)


def test_simulate_rejects_bad_steps():
    model = hand_rational_model()
    with pytest.raises(ValueError):
        simulate(model, [1.0], t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        simulate(model, [1.0], t_end=0.001, dt=1.0)


# ---------------------------------------------------------------------------
# symmetrization and reports


def test_symmetrize_preserves_evaluation():
    model = hand_pendulum_model()
    sym = symmetrize(model)
    rng = np.random.default_rng(4)
    z_cols = rng.standard_normal((4, 20))
    assert np.abs(evaluate_cols(sym, z_cols)
                  - evaluate_cols(model, z_cols)).max() < 1e-13


def test_symmetrize_makes_row_forms_symmetric():
    model = hand_pendulum_model()
    sym = symmetrize(model)
    for r in range(4):
        square = sym.a[r].reshape(4, 4)
        assert np.abs(square - square.T).max() == 0.0
    # the lone pendulum product coefficient splits into two halves
    assert sym.a[2, 4 * 3 + 1] == 0.5
    assert sym.a[2, 4 * 1 + 3] == 0.5


def test_hurwitz_margin_stable_linear_part():
    d = Dictionary.from_strings(2, ["x1", "x2"])
    model = QuadraticModel(np.zeros((2, 4)), -np.eye(2), np.zeros(2),
                           np.eye(2), d)
    report = hurwitz_margin(model)
    assert report.stable is True
    assert abs(report.max_real_part + 1.0) < 1e-12


def test_hurwitz_margin_marginal_rotation():
    d = Dictionary.from_strings(2, ["x1", "x2"])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = QuadraticModel(np.zeros((2, 4)), b, np.zeros(2), np.eye(2), d)
    report = hurwitz_margin(model)
    assert report.stable is False
    assert abs(report.max_real_part) < 1e-12
    assert sorted(np.round(report.eigenvalues.imag, 12)) == [-1.0, 1.0]


def test_sparsity_report_counts():
    model = hand_rational_model()
    report = sparsity_report(model)
    assert (report.a_nonzeros, report.b_nonzeros, report.c_nonzeros) == (4, 0, 0)
    assert abs(report.a_frobenius - np.sqrt(7.0)) < 1e-12


def test_sparsity_report_threshold():
    """An entry counts when its magnitude is above 1e-6, not at it."""
    a = np.zeros((3, 9))
    a[0, 0], a[1, 4] = 2e-6, 1e-6
    model = QuadraticModel(a, np.zeros((3, 3)), np.zeros(3), np.array([[1.0, 0.0, 0.0]]),
                           rational_dictionary())
    assert sparsity_report(model).a_nonzeros == 1


# ---------------------------------------------------------------------------
# serialization


def test_model_json_round_trip():
    model = hand_pendulum_model()
    payload = model_to_json(model)
    assert payload["state_dim"] == 2
    assert np.asarray(payload["A"]).shape == (4, 16)
    back = model_from_json(payload)
    assert np.array_equal(back.a, model.a)
    assert np.array_equal(back.b, model.b)
    assert np.array_equal(back.c, model.c)
    assert np.array_equal(back.g, model.g)
    assert back.dictionary.size == 4


def test_model_json_deterministic():
    model = hand_rational_model()
    once = json.dumps(model_to_json(model), sort_keys=True)
    twice = json.dumps(model_to_json(model_from_json(model_to_json(model))),
                       sort_keys=True)
    assert once == twice


def test_save_load_model(tmp_path):
    model = hand_rational_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.a, model.a)
    z = feature_map(back.dictionary, [1.0])
    assert np.abs(evaluate(back, z) - np.array([-0.5, 0.125, 0.0])).max() < 1e-15


def test_model_json_keeps_force_c_zero():
    ts = exact_derivatives(pendulum(c=0.1), sample_uniform([(-1, 1)] * 2, 200, seed=3))
    fitted = fit(pendulum_dictionary(), ts, force_c_zero=True)
    payload = model_to_json(fitted)
    back = model_from_json(payload)
    assert back.metadata["force_c_zero"] is True
    dm = build_data_matrices(fitted.dictionary, ts)
    assert stationarity_gap(back, dm) == stationarity_gap(fitted, dm)
    # Files written before the flag was saved load as unconstrained fits.
    del payload["force_c_zero"]
    assert model_from_json(payload).metadata["force_c_zero"] is False


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("reembed", [False, True])
def test_simulate_blowup_carries_the_finite_path(reembed):
    d = Dictionary.from_strings(1, ["x1", "x1^2"])
    model = QuadraticModel(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]]),
                           np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2),
                           np.array([[1.0, 0.0]]), d)
    # dx = x^2 written through z = (x, x^2); blows up near t = 0.5 from 2,
    # and at step 1 from 1e100 (whose square is still finite).
    for x0 in (2.0, 1e100):
        with pytest.raises(IntegrationBlowupError) as exc:
            simulate(model, [x0], t_end=1.0, dt=0.01, reembed=reembed)
        step, partial = exc.value.step, exc.value.partial
        assert partial.times.size == step
        assert np.array_equal(partial.x_states, partial.z_states @ model.g.T)
        if step == 1:
            assert np.array_equal(partial.times, [0.0])
            assert np.array_equal(partial.z_states, [feature_map(d, [x0])])
            assert np.array_equal(partial.x_states, [[x0]])
            continue
        rerun = simulate(model, [x0], t_end=(step - 1) * 0.01, dt=0.01,
                         reembed=reembed)
        for name in ("times", "z_states", "x_states"):
            assert getattr(partial, name).tobytes() == getattr(rerun, name).tobytes()


def test_simulate_checks_the_re_embedded_state():
    # phi(x) = (x, exp(x) - exp(x)) is (x, 0) until exp overflows: dx = 1 from
    # 708.5 takes a finite step 2 to 710.5, whose re-embedding is (710.5, nan).
    d = Dictionary.from_strings(1, ["x1", "exp(x1) - exp(x1)"])
    model = QuadraticModel(np.zeros((2, 4)), np.zeros((2, 2)), np.array([1.0, 0.0]),
                           np.array([[1.0, 0.0]]), d)
    with pytest.raises(IntegrationBlowupError) as exc:
        simulate(model, [708.5], t_end=5.0, dt=1.0, reembed=True)
    assert exc.value.step == 2
    assert np.array_equal(exc.value.partial.z_states, [[708.5, 0.0], [709.5, 0.0]])
    assert np.array_equal(exc.value.partial.x_states, [[708.5], [709.5]])
    # Without re-embedding the lifted state never leaves (x, 0).
    plain = simulate(model, [708.5], t_end=5.0, dt=1.0)
    assert np.array_equal(plain.x_states[:, 0], 708.5 + np.arange(6.0))
