"""Quadratic lifted models: evaluation, simulation, extraction, reports."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from qendy.baselines import state_field
from qendy.dictionary import (
    ConfigurationError, Dictionary, dictionary_from_json, feature_map, feature_matrix,
    full_state_matrix,
)
from qendy.dynamics import (
    IntegrationBlowupError, Trajectory, _step_count, exact_derivatives,
    finite_diff_derivatives, rk4_integrate, rk4_step, sample_trajectory, sample_uniform,
)
from qendy.expr import BLOCK
from qendy.fitting import build_data_matrices, fit, stationarity_gap
from qendy.model import (
    STEP_BLOCK, EmbeddedTrajectory, QuadraticModel, evaluate, evaluate_cols, extract_rhs,
    extract_rhs_many, hurwitz_margin, kron_squared, kron_squared_cols, load_model,
    model_from_json, model_to_json, save_model, simulate, sparsity_report,
    symmetrize,
)
from qendy.reduction import reduced_identification_pipeline, synthetic_lift_data
from qendy.systems import (
    make_dictionary, pendulum, pendulum_dictionary, rational_decay, rational_dictionary,
    thomas, thomas_dictionary,
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


@pytest.mark.filterwarnings("ignore:invalid value")
def test_one_point_is_the_batch_of_one_bit_for_bit():
    # Each one-point entry runs one column (or row) of its batch twin; the
    # infinite coordinate reads sin(inf) and gives the batch's nan.
    rng = np.random.default_rng(11)
    for name, field in (("pendulum", pendulum()), ("thomas9", thomas(0.25, 0.15)),
                        ("thomas15", thomas(0.25, 0.15))):
        d = make_dictionary(name)
        box = [(-1.5, 1.5)] * field.n
        model = fit(d, exact_derivatives(field, sample_uniform(box, 2000, seed=3)))
        points = [*rng.uniform(-2.0, 2.0, (200, field.n)),
                  np.r_[np.inf, np.zeros(field.n - 1)]]
        for x in points:
            batch = x[None, :]
            z = feature_matrix(d, batch)[:, 0]
            pairs = [
                (d.program.point(x), d.program.values(batch)[:, 0]),
                (field(x), field.many(batch)[0]),
                (feature_map(d, x), z),
                (kron_squared(z), kron_squared_cols(z[:, None])[:, 0]),
                (evaluate(model, z), evaluate_cols(model, z[:, None])[:, 0]),
                (extract_rhs(model, x), extract_rhs_many(model, batch)[0]),
            ]
            for one, of_batch in pairs:
                assert one.shape == of_batch.shape
                assert one.tobytes() == of_batch.tobytes(), (name, x)
        assert np.isnan(field(points[-1])).any()
        assert np.isnan(feature_map(d, points[-1])).any()


def test_extract_rhs_many_holds_its_result_plus_one_block():
    # thomas15 at m = 20 000: the whole (225, m) Kronecker square is 36 MB,
    # one block's is 14.7 MB.  Blocks past the first may move at rounding
    # against the whole batch, since BLAS sums a product by its width.
    d = make_dictionary("thomas15")
    size, m = d.size, 20_000
    rng = np.random.default_rng(0)
    model = QuadraticModel(rng.normal(size=(size, size * size)),
                           rng.normal(size=(size, size)), rng.normal(size=size),
                           full_state_matrix(d), d)
    points = rng.uniform(-2.0, 2.0, (m, 3))
    extract_rhs_many(model, points[:10])
    tracemalloc.start()
    try:
        got = extract_rhs_many(model, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 1.25 * size * size * BLOCK * 8, peak
    blocks = [(model.g @ evaluate_cols(model, feature_matrix(d, points[s:s + BLOCK]))).T
              for s in range(0, m, BLOCK)]
    assert got.tobytes() == np.concatenate(blocks).tobytes()
    whole = (model.g @ evaluate_cols(model, feature_matrix(d, points))).T
    assert np.abs(got - whole).max() <= 1e-15 * np.abs(whole).max()


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
    # Named in rk4_integrate's words; it read "start state lifts to
    # non-finite values".
    for x0, shown in (([np.nan], r"\[nan\]"), ([-np.inf], r"\[-inf\]")):
        with pytest.raises(ValueError, match=f"^start state {shown} is not finite$"):
            simulate(hand_rational_model(), x0, t_end=1.0, dt=0.1)


def test_simulate_rejects_bad_steps():
    model = hand_rational_model()
    with pytest.raises(ValueError):
        simulate(model, [1.0], t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        simulate(model, [1.0], t_end=0.001, dt=1.0)


def reference_path(model, x0, steps, dt, reembed=False):
    """The lifted path of ``rk4_step`` on :func:`evaluate`, the stepper that
    ``simulate`` replaces, and the step of its first non-finite state, if any.

    With ``reembed``, the state path of ``rk4_step`` on :func:`extract_rhs`,
    the field that ``forecast(..., reembed=True)`` integrates.
    """
    x0 = np.asarray(x0, dtype=float)
    if reembed:
        z, rhs = x0, lambda v: extract_rhs(model, v)
    else:
        z, rhs = feature_map(model.dictionary, x0), lambda v: evaluate(model, v)
    z_states = [z]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z = rk4_step(rhs, z, dt)
            if not np.isfinite(z).all():
                return np.array(z_states), k + 1
            z_states.append(z)
    return np.array(z_states), None


@pytest.fixture(scope="module")
def thomas9_model():
    """thomas9 fitted on criterion 5's trajectory."""
    field = thomas(alpha=0.2, beta=0.0)
    traj = sample_trajectory(field, [1.0, -1.0, 0.0], 100.0, 1000, substeps=10)
    return fit(thomas_dictionary(), exact_derivatives(field, traj.states))


def forecast(model, x0, t_end, dt, reembed):
    """The path ``qendy simulate`` forecasts: the lifted path of ``simulate``,
    or with ``reembed`` the path of the model's state-space field."""
    if reembed:
        return rk4_integrate(state_field(model), x0, t_end, dt)
    return simulate(model, x0, t_end, dt)


def _equivalence_cases(thomas9):
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3))
    return [(hand_pendulum_model(), [1.0, 0.0])] + [(thomas9, x0) for x0 in starts]


def test_simulate_matches_rk4_step_on_evaluate(thomas9_model):
    # The homogeneous form sums in BLAS order: equal to rounding, not in bits.
    for model, x0 in _equivalence_cases(thomas9_model):
        want, blowup = reference_path(model, x0, 1000, 0.01)
        assert blowup is None
        got = simulate(model, x0, t_end=10.0, dt=0.01)
        assert got.z_states.shape == want.shape
        scale = np.abs(want).max()
        assert np.abs(got.z_states - want).max() <= 1e-12 * scale
        assert np.abs(got.x_states - want @ model.g.T).max() <= 1e-12 * scale


def test_simulate_reruns_are_byte_identical(thomas9_model):
    for model, x0 in _equivalence_cases(thomas9_model):
        first = simulate(model, x0, t_end=10.0, dt=0.01)
        again = simulate(model, x0, t_end=10.0, dt=0.01)
        for name in ("times", "z_states", "x_states"):
            assert getattr(first, name).tobytes() == getattr(again, name).tobytes()


@pytest.mark.parametrize("reembed", [False, True])
def test_simulate_blows_up_at_the_reference_step(reembed):
    # The models of the blowup tests below, stepped by both steppers, on the
    # lifted path or on the state-space field.
    d1 = Dictionary.from_strings(1, ["x1"])
    square = QuadraticModel(np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1),
                            np.array([[1.0]]), d1)
    d2 = Dictionary.from_strings(1, ["x1", "x1^2"])
    lifted = QuadraticModel(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]]),
                            np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2),
                            np.array([[1.0, 0.0]]), d2)
    for model, x0 in ((square, 2.0), (lifted, 2.0), (lifted, 1e100)):
        want, step = reference_path(model, [x0], 100, 0.01, reembed)
        assert step is not None
        with pytest.raises(IntegrationBlowupError) as exc:
            forecast(model, [x0], 1.0, 0.01, reembed)
        assert exc.value.step == step
        partial = exc.value.partial
        got = partial.states if reembed else partial.z_states
        assert got.shape == want.shape
        assert got.flags.owndata  # not a view of the preallocated path
        # The last steps grow |z| up to 1e160-fold, and a rounding difference
        # with it: rowwise 1.2e-11 at the last finite state of dz = z^2.
        rowwise = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert rowwise.max() <= 1e-10


def per_step_simulate(model, x0, t_end, dt):
    """The step loop of :func:`simulate` that copied each state into a
    separate stage vector (z, 1) and checked it for finiteness after every
    step; ``simulate`` must give its bits, and its blowup step and partial."""
    steps = _step_count(t_end, dt)
    dt = float(dt)
    size = model.basis_size
    z = feature_map(model.dictionary, np.asarray(x0, dtype=float))
    form = np.zeros((size, size + 1, size + 1))
    form[:, :size, :size] = model.a.reshape(size, size, size)
    form[:, :size, size] = model.b
    form[:, size, size] = model.c
    form = form.reshape(size * (size + 1), size + 1)
    half, full = (0.5 * dt) * form, dt * form
    zh = np.ones(size + 1)
    head = zh[:size]
    products = np.empty(size * (size + 1))
    rows = products.reshape(size, size + 1)
    shifts = np.empty((4, size))
    weights = np.array([1.0, 2.0, 1.0, 0.5]) / 3.0
    z_states = np.empty((steps + 1, size))
    z_states[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            np.copyto(head, z)
            for scaled, shift in zip((half, half, full), shifts):
                np.dot(scaled, zh, out=products)
                np.dot(rows, zh, out=shift)
                np.add(z, shift, out=head)
            np.dot(full, zh, out=products)
            np.dot(rows, zh, out=shifts[3])
            z = z_states[k + 1]
            np.dot(weights, shifts, out=z)
            z += z_states[k]
            if not np.isfinite(z).all():
                kept = z_states[:k + 1].copy()
                raise IntegrationBlowupError(k + 1, EmbeddedTrajectory(
                    np.arange(k + 1) * dt, kept, kept @ model.g.T))
    times = np.arange(steps + 1) * dt
    return EmbeddedTrajectory(times, z_states, z_states @ model.g.T)


def _assert_same_bits(got, want):
    for name in ("times", "z_states", "x_states"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _bit_cases(case, thomas9):
    """(model, [(x0, t_end, dt), ...]) of a fit that ``simulate`` forecasts."""
    if case == "thomas9":
        starts = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3))
        return thomas9, [(x0, 10.0, 0.01) for x0 in starts]
    if case == "pendulum":
        return _pendulum_fit(pendulum_dictionary()), [([1.0, 0.0], 10.0, 0.01),
                                                      ([-2.0, 1.5], 7.0, 0.1)]
    # The identity-dictionary model of the reduce pipeline, from its first
    # reduced snapshot over its whole horizon.
    snapshots, _ = synthetic_lift_data(num_samples=200, lift_dim=20, seed=0)
    result = reduced_identification_pipeline(snapshots, 3, 0.8, 0.1)
    return result.model, [(result.reduced[0], 199 * 0.1, 0.1)]


@pytest.mark.parametrize("case", ["thomas9", "pendulum", "reduce"])
def test_simulate_gives_the_bits_of_the_per_step_loop(thomas9_model, case):
    model, runs = _bit_cases(case, thomas9_model)
    for x0, t_end, dt in runs:
        _assert_same_bits(simulate(model, x0, t_end, dt),
                          per_step_simulate(model, x0, t_end, dt))


@pytest.mark.parametrize("step", [1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 10])
def test_a_blowup_ends_the_path_where_the_per_step_loop_does(step):
    # dz = b z with q = b dt = 11 grows ~1000-fold a step; from x0 the state
    # at step - 1 is ~1e306.5, and the next step overflows.  The last case
    # lands in the final partial block of the 2 STEP_BLOCK + 30 steps.
    dt, q = 0.01, 11.0
    growth = 1.0 + q + q ** 2 / 2 + q ** 3 / 6 + q ** 4 / 24
    x0 = 10.0 ** (308.0 - (step - 0.5) * np.log10(growth))
    model = QuadraticModel(np.zeros((1, 1)), np.array([[q / dt]]), np.zeros(1),
                           np.array([[1.0]]), Dictionary.from_strings(1, ["x1"]))
    t_end = (2 * STEP_BLOCK + 30) * dt
    with pytest.raises(IntegrationBlowupError) as want:
        per_step_simulate(model, [x0], t_end, dt)
    assert want.value.step == step
    with pytest.raises(IntegrationBlowupError) as got:
        simulate(model, [x0], t_end, dt)
    assert got.value.step == step
    _assert_same_bits(got.value.partial, want.value.partial)
    assert got.value.partial.z_states.flags.owndata


# ---------------------------------------------------------------------------
# the identified state-space field


def _pendulum_fit(d, g=None):
    ts = exact_derivatives(pendulum(c=0.1), sample_uniform([(-1, 1)] * 2, 200, seed=0))
    return fit(d, ts, g=g)


@pytest.mark.parametrize("case", ["pendulum", "thomas9", "g-override"])
def test_state_field_matches_extract_rhs_many(thomas9_model, case):
    if case == "pendulum":
        model = _pendulum_fit(pendulum_dictionary())
    elif case == "thomas9":
        model = thomas9_model
    else:
        # A basis without the coordinates, so that G is the dictionary file's.
        d, g = dictionary_from_json({
            "state_dim": 2, "basis": ["x1 + x2", "x1 - x2", "sin(x1)", "cos(x1)"],
            "G": [[0.5, 0.5, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0]]})
        model = _pendulum_fit(d, g)
        assert np.array_equal(model.g, g)
    field = state_field(model)
    points = sample_uniform([(-2.0, 2.0)] * model.state_dim, 500, seed=1)
    want = extract_rhs_many(model, points)
    assert np.abs(field.many(points) - want).max() <= 1e-12 * np.abs(want).max()


def _thomas9_forecast_errors(starts, integrate):
    """Sup error of ``integrate(x0)`` against the true thomas9 path over t 10."""
    truth = thomas(alpha=0.2, beta=0.0)
    return [np.abs(integrate(x0) - rk4_integrate(truth, x0, 10.0, 0.01).states).max()
            for x0 in starts]


def test_state_field_stays_on_the_manifold_where_the_lifted_path_drifts():
    # Uniform samples in [-1,1]^3 leave near-collinear x, sin x and cos x: the
    # lifted path drifts off the embedded manifold, the state-space field
    # cannot leave it.
    points = sample_uniform([(-1.0, 1.0)] * 3, 20000, seed=0)
    model = fit(thomas_dictionary(), exact_derivatives(thomas(alpha=0.2, beta=0.0), points))
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 3))
    field = state_field(model)
    on_field = _thomas9_forecast_errors(
        starts, lambda x0: rk4_integrate(field, x0, 10.0, 0.01).states)
    lifted = _thomas9_forecast_errors(
        starts, lambda x0: simulate(model, x0, 10.0, 0.01).x_states)
    assert max(on_field) < 1e-3 and max(lifted) > 5e-3


@pytest.mark.parametrize("seed", [0, 2])
def test_state_field_of_a_noisy_fit_does_not_blow_up(seed):
    # Criterion 5's trajectory with sigma 1e-3 state noise and finite
    # differences; the lifted path of these fits blows up from (0, 1, 1).
    truth = thomas(alpha=0.2, beta=0.0)
    traj = sample_trajectory(truth, [1.0, -1.0, 0.0], 100.0, 1000, substeps=10)
    noise = np.random.default_rng(seed).normal(0.0, 1e-3, traj.states.shape)
    model = fit(thomas_dictionary(),
                finite_diff_derivatives(Trajectory(traj.times, traj.states + noise)))
    [error] = _thomas9_forecast_errors(
        [[0.0, 1.0, 1.0]],
        lambda x0: rk4_integrate(state_field(model), x0, 10.0, 0.01).states)
    assert error < 0.2


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


def test_load_model_refuses_a_file_that_is_not_an_object(tmp_path):
    # This raised TypeError: list indices must be integers or slices, not str.
    path = tmp_path / "model.json"
    path.write_text(json.dumps([model_to_json(hand_rational_model())]))
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))} does not hold "
                                                 "a JSON object$"):
        load_model(path)


def test_model_file_sample_count_may_be_zero():
    # What a fit of an empty training set writes; a negative m is refused
    # (tests/test_cli.py, the bad fit metadata cases).
    payload = model_to_json(hand_rational_model())
    payload["m"] = 0
    assert model_from_json(payload).metadata["m"] == 0


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
    names = ("times", "states") if reembed else ("times", "z_states", "x_states")
    for x0 in (2.0, 1e100):
        with pytest.raises(IntegrationBlowupError) as exc:
            forecast(model, [x0], 1.0, 0.01, reembed)
        step, partial = exc.value.step, exc.value.partial
        assert partial.times.size == step
        if not reembed:
            assert np.array_equal(partial.x_states, partial.z_states @ model.g.T)
        if step == 1:
            assert np.array_equal(partial.times, [0.0])
            if reembed:
                assert np.array_equal(partial.states, [[x0]])
                continue
            assert np.array_equal(partial.z_states, [feature_map(d, [x0])])
            assert np.array_equal(partial.x_states, [[x0]])
            continue
        rerun = forecast(model, [x0], (step - 1) * 0.01, 0.01, reembed)
        for name in names:
            assert getattr(partial, name).tobytes() == getattr(rerun, name).tobytes()
