"""Integrator, samplers, derivative estimation, benchmark systems, CSV IO."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qendy import dynamics, reduction
from qendy.dynamics import (
    IntegrationBlowupError, Trajectory, TrainingSet, VectorField,
    exact_derivatives, finite_diff_derivatives, load_training, load_trajectory,
    rk4_integrate, sample_trajectory, sample_uniform, save_training,
    save_trajectory,
)
from qendy.expr import Add, Const, EvaluationDomainError, Inv, Mul, Program, Var, parse
from qendy.fitting import _CHUNK, fit
from qendy.model import extract_rhs_many
from qendy.systems import (
    make_system, mean_field, pendulum, quartic_coupled, quartic_decoupled,
    rational_decay, thomas, thomas_dictionary,
)

DECAY = VectorField.from_exprs(1, ["-x1"])


# ---------------------------------------------------------------------------
# RK4


def test_rk4_exponential_decay():
    traj = rk4_integrate(DECAY, [1.0], 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-10
    assert traj.times[0] == 0.0 and abs(traj.times[-1] - 1.0) < 1e-12


def test_rk4_zero_field_constant():
    zero = VectorField.from_exprs(2, ["0", "0"])
    traj = rk4_integrate(zero, [2.0, 3.0], 1.0, 0.1)
    assert np.abs(traj.states - np.array([2.0, 3.0])).max() == 0.0


def test_rk4_pendulum_energy_dissipates():
    traj = rk4_integrate(pendulum(c=0.1), [1.0, 0.0], 10.0, 1e-2)
    energy = 0.5 * traj.states[:, 1] ** 2 + (1.0 - np.cos(traj.states[:, 0]))
    assert np.all(np.diff(energy) <= 1e-12)


def test_rk4_fourth_order_convergence():
    """Halving dt shrinks the final-state error by roughly 2^4."""
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj = rk4_integrate(DECAY, [1.0], 1.0, dt)
        errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    for e0, e1 in zip(errors, errors[1:]):
        assert 14.0 < e0 / e1 < 18.0, f"ratio {e0 / e1:.2f}"


@pytest.mark.filterwarnings("ignore:overflow")
def test_rk4_blowup_reports_step():
    unstable = VectorField.from_exprs(1, ["x1^3"])
    with pytest.raises(IntegrationBlowupError) as info:
        rk4_integrate(unstable, [5.0], 10.0, 0.5)
    assert info.value.step >= 1


def test_sample_trajectory_matches_rk4_grid():
    traj = sample_trajectory(DECAY, [1.0], 2.0, 21, substeps=10)
    assert traj.times.shape == (21,)
    assert abs(traj.dt - 0.1) < 1e-14
    assert abs(traj.states[-1, 0] - math.exp(-2.0)) < 1e-10


@pytest.mark.parametrize("substeps", [1, 10])
def test_sample_trajectory_keeps_only_its_samples(substeps):
    # A strided view of the fine path would keep all of it alive.
    field = thomas()
    sample_trajectory(field, [1.0, -1.0, 0.0], 0.1, 2, substeps)  # compiles the binding
    tracemalloc.start()
    try:
        traj = sample_trajectory(field, [1.0, -1.0, 0.0], 20.0, 2000, substeps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (2000, 3) and traj.states.flags.owndata
    want = rk4_integrate(field, [1.0, -1.0, 0.0], 20.0, 20.0 / (1999 * substeps))
    assert np.array_equal(traj.states, want.states[::substeps])
    assert held < traj.states.nbytes + traj.times.nbytes + 16 * 1024


# ---------------------------------------------------------------------------
# sampling


def test_sample_uniform_inside_box():
    pts = sample_uniform([(-1, 1), (-1, 1)], 1000, seed=0)
    assert pts.shape == (1000, 2)
    assert pts.min() >= -1.0 and pts.max() <= 1.0


def test_sample_uniform_deterministic():
    a = sample_uniform([(0, 1)], 100, seed=42)
    b = sample_uniform([(0, 1)], 100, seed=42)
    assert np.array_equal(a, b)
    c = sample_uniform([(0, 1)], 100, seed=43)
    assert not np.array_equal(a, c)


def test_sample_uniform_mean_near_center():
    m = 4000
    pts = sample_uniform([(-1, 1), (2, 6)], m, seed=7)
    for axis, (lo, hi) in enumerate([(-1, 1), (2, 6)]):
        bound = 4 * (hi - lo) / math.sqrt(12 * m)
        assert abs(pts[:, axis].mean() - 0.5 * (lo + hi)) < bound


@pytest.mark.parametrize("box", [
    [(0.5, 2.0)], [(-1.0, 1.0), (2.0, 6.0)], [(-5.0, 5.0), (-0.1, 0.3), (1e-3, 7.0)],
], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("m", [1, 2 * _CHUNK + 7])
def test_sample_uniform_is_the_broadcast_formula_bit_for_bit(box, m):
    # The columns are scaled in place; the bits are those of lo + (hi - lo) * r.
    lo, hi = np.array(box).T
    want = lo + (hi - lo) * np.random.default_rng(5).random((m, len(box)))
    got = sample_uniform(box, m, seed=5)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# derivatives


def test_exact_derivatives_rational():
    ts = exact_derivatives(rational_decay(), np.array([[1.0]]))
    assert abs(ts.derivatives[0, 0] + 0.5) < 1e-15
    assert ts.provenance == "exact"


def test_exact_derivatives_zero_field():
    zero = VectorField.from_exprs(2, ["0", "0"])
    ts = exact_derivatives(zero, np.zeros((5, 2)))
    assert np.abs(ts.derivatives).max() == 0.0


def test_exact_derivatives_pendulum_point():
    ts = exact_derivatives(pendulum(c=0.1), np.array([[math.pi / 2, 0.0]]))
    assert np.abs(ts.derivatives[0] - np.array([0.0, -1.0])).max() < 1e-15


def test_finite_diff_linear_exact():
    times = np.arange(11) * 0.1
    traj = Trajectory(times=times, states=times[:, None].copy())
    ts = finite_diff_derivatives(traj)
    assert np.abs(ts.derivatives - 1.0).max() < 1e-12
    assert ts.provenance == "finite-difference"


def test_finite_diff_quadratic_interior_and_ends():
    times = np.arange(11) * 0.1
    traj = Trajectory(times=times, states=(times ** 2)[:, None])
    ts = finite_diff_derivatives(traj)
    k = 5  # t = 0.5, central difference exact for quadratics
    assert abs(ts.derivatives[k, 0] - 1.0) < 1e-12
    # The three-point one-sided stencils are exact for quadratics too:
    # (-3*0 + 4*0.01 - 0.04) / 0.2 at t=0, and (3*1 - 4*0.81 + 0.64) / 0.2 at t=1.
    assert abs(ts.derivatives[0, 0] - 0.0) < 1e-12
    assert abs(ts.derivatives[-1, 0] - 2.0) < 1e-12


def test_finite_diff_needs_three_samples():
    traj = Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        finite_diff_derivatives(traj)


def test_central_difference_second_order():
    """Error of the interior stencil on sin(t) decays like dt^2."""
    errors = []
    for dt, mid in ((0.1, 5), (0.05, 10)):  # both evaluate at t = 0.5
        times = np.arange(21) * dt
        traj = Trajectory(times=times, states=np.sin(times)[:, None])
        ts = finite_diff_derivatives(traj)
        errors.append(abs(ts.derivatives[mid, 0] - math.cos(times[mid])))
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_one_sided_ends_are_second_order():
    """The end errors on sin(t) over [0, 1] decay like dt^2 too."""
    errors = []
    for dt in (0.1, 0.05):
        times = np.arange(int(round(1.0 / dt)) + 1) * dt
        ts = finite_diff_derivatives(Trajectory(times, np.sin(times)[:, None]))
        errors.append(np.abs(ts.derivatives[[0, -1], 0] - np.cos(times[[0, -1]])))
    for ratio in errors[0] / errors[1]:
        assert 3.5 < ratio < 4.5, f"ratio {ratio:.2f}"


def test_finite_difference_fit_of_criterion_5_is_close_to_the_field():
    # First-order ends left the fitted field 1.6e-2 off on this trajectory.
    field = thomas(alpha=0.2, beta=0.0)
    traj = sample_trajectory(field, [1.0, -1.0, 0.0], 100.0, 1000, substeps=10)
    model = fit(thomas_dictionary(), finite_diff_derivatives(traj))
    sup = np.abs(extract_rhs_many(model, traj.states) - field.many(traj.states)).max()
    assert sup < 5e-3, f"sup={sup:.3e}"


# ---------------------------------------------------------------------------
# benchmark systems


def test_thomas_cyclic_structure():
    f = thomas(alpha=0.2, beta=0.0)
    out = f(np.array([0.0, math.pi / 2, 0.0]))
    assert abs(out[0] - 1.0) < 1e-15  # sin(pi/2) - 0.2*0 - 0


def test_thomas_beta_term():
    f = thomas(alpha=0.25, beta=0.15)
    x = np.array([0.3, -0.7, 1.1])
    expected = np.array([
        math.sin(x[1]) - 0.25 * x[0] - 0.15 * x[1] * math.cos(x[0]),
        math.sin(x[2]) - 0.25 * x[1] - 0.15 * x[2] * math.cos(x[1]),
        math.sin(x[0]) - 0.25 * x[2] - 0.15 * x[0] * math.cos(x[2]),
    ])
    assert np.abs(f(x) - expected).max() < 1e-14


def test_quartic_systems():
    x = np.array([1.5, -0.5])
    out = quartic_decoupled()(x)
    assert np.abs(out - np.array([1.5 - 0.0625, -1.0])).max() < 1e-14
    out = quartic_coupled()(x)
    assert np.abs(out - np.array([1.5 - 0.0625, 1.5 - 1.0])).max() < 1e-14


def test_mean_field_limit_cycle_radius():
    """The planar oscillator settles onto r^2 = mu/|coupling|, x3 = r^2."""
    f = mean_field(mu=0.1, omega=1.0, coupling=-0.1)
    traj = rk4_integrate(f, [0.05, 0.0, 0.2], 200.0, 1e-2)
    radius = np.hypot(traj.states[-1, 0], traj.states[-1, 1])
    assert abs(radius - 1.0) < 1e-3
    assert abs(traj.states[-1, 2] - 1.0) < 1e-3


def test_make_system_rejects_unknown():
    with pytest.raises(ValueError, match="unknown system"):
        make_system("lorenz")


@pytest.mark.parametrize("name, params, shown", [
    ("pendulum", {"c": math.inf}, "'c' must be finite, got inf"),
    ("thomas", {"beta": -math.inf}, "'beta' must be finite, got -inf"),
    ("mean-field", {"relax": math.nan}, "'relax' must be finite, got nan"),
], ids=["pendulum", "thomas", "mean-field"])
def test_make_system_refuses_a_parameter_that_is_not_finite(name, params, shown):
    # Written with repr, it read as an unknown function 'inf' or 'nan'.
    with pytest.raises(ValueError, match=f"^parameter {shown}$"):
        make_system(name, **params)


# The hand-written NumPy right-hand sides that the expression fields replaced.
HAND_WRITTEN = {
    "pendulum": lambda x1, x2: [x2, -np.sin(x1) - 0.1 * x2],
    "rational": lambda x: [-x / (1.0 + x)],
    "thomas": lambda x1, x2, x3: [np.sin(x2) - 0.2 * x1 - 0.0 * x2 * np.cos(x1),
                                  np.sin(x3) - 0.2 * x2 - 0.0 * x3 * np.cos(x2),
                                  np.sin(x1) - 0.2 * x3 - 0.0 * x1 * np.cos(x3)],
    "quartic": lambda x1, x2: [x1 - x2 ** 4, 2.0 * x2],
    "quartic-coupled": lambda x1, x2: [x1 - x2 ** 4, x1 + 2.0 * x2],
    "mean-field": lambda x1, x2, x3: [0.1 * x1 - 1.0 * x2 + -0.1 * x1 * x3,
                                      1.0 * x1 + 0.1 * x2 + -0.1 * x2 * x3,
                                      -10.0 * (x3 - x1 ** 2 - x2 ** 2)],
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_expression_systems_match_the_hand_written_fields(name):
    field = make_system(name)
    rng = np.random.default_rng(3)
    lo = 0.0 if name == "rational" else -3.0
    points = rng.uniform(lo, 3.0, (20_000, field.n))
    expected = np.column_stack(HAND_WRITTEN[name](*points.T))
    got = field.many(points)
    if name != "rational":
        assert got.tobytes() == expected.tobytes()
        return
    # -x/(1+x) is computed as (-x)*(1/(1+x)): at most one ulp away.
    assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected)))


def test_thomas_with_coupling_matches_the_hand_written_field():
    points = np.random.default_rng(4).uniform(-5.0, 5.0, (20_000, 3))
    x1, x2, x3 = points.T
    expected = np.column_stack([
        np.sin(x2) - 0.25 * x1 - 0.15 * x2 * np.cos(x1),
        np.sin(x3) - 0.25 * x2 - 0.15 * x3 * np.cos(x2),
        np.sin(x1) - 0.25 * x3 - 0.15 * x1 * np.cos(x3),
    ])
    assert thomas(alpha=0.25, beta=0.15).many(points).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, texts, shown", [
    (1, ["x2"], "component 0 references x2 but the state dimension is 1"),
    (2, ["x1", "x3*sin(x4)"], "component 1 references x3 but the state dimension is 2"),
])
def test_field_rejects_a_variable_beyond_its_dimension(n, texts, shown):
    # Such a field used to build and fail only on its first call.
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        VectorField.from_exprs(n, texts)
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        Program(tuple(map(parse, texts)), n)


def test_field_needs_one_component_per_dimension():
    with pytest.raises(ValueError, match="^1 component expressions for dimension 2$"):
        VectorField.from_exprs(2, ["x1"])
    with pytest.raises(ValueError, match="^2 component expressions for dimension 1$"):
        VectorField(1, Program((parse("x1"), parse("x1")), 1))
    with pytest.raises(ValueError, match=r"^a program over R\^3 for dimension 2$"):
        VectorField(2, Program((parse("x1"), parse("x2")), 3))


# Expression fields whose paths overflow: through exp, through a power, and
# into sin/cos of an infinity (which math.sin rejects and NumPy maps to nan).
BLOWUPS = [
    (["exp(x1)", "sin(x1)*x2"], [1.0, 0.5]),
    (["x1^3 - x2", "cos(x1) + x2^-2"], [2.0, 1.0]),
    (["x2*x1^2", "exp(x2)*sin(x1)"], [0.5, 3.0]),
]


@pytest.mark.parametrize("texts, x0", BLOWUPS)
def test_expression_field_blows_up_like_a_batch_of_one(texts, x0, array_rk4_integrate):
    field = VectorField.from_exprs(len(texts), texts)
    batch_of_one = lambda x: field.many(x[None, :])[0]  # stepped on arrays
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the integrator does not warn either
        for integrate, f in ((rk4_integrate, field), (array_rk4_integrate, batch_of_one)):
            with pytest.raises(IntegrationBlowupError) as info:
                integrate(f, x0, 5.0, 0.01)
            errors.append(info.value)
    assert errors[0].step == errors[1].step > 1
    assert errors[0].partial.states.tobytes() == errors[1].partial.states.tobytes()


# ---------------------------------------------------------------------------
# CSV round-trips


def test_trajectory_csv_round_trip(tmp_path):
    traj = sample_trajectory(pendulum(), [1.0, 0.0], 1.0, 11)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2"
    again = load_trajectory(path)
    assert np.array_equal(traj.times, again.times)
    assert np.array_equal(traj.states, again.states)


def test_training_csv_round_trip(tmp_path):
    ts = exact_derivatives(thomas(0.2, 0.0), sample_uniform([(-1, 1)] * 3, 17, seed=1))
    path = tmp_path / "train.csv"
    save_training(ts, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,dx1,dx2,dx3"
    again = load_training(path)
    assert np.array_equal(ts.states, again.states)
    assert np.array_equal(ts.derivatives, again.derivatives)


def test_training_csv_rewrite_is_byte_identical(tmp_path):
    ts = exact_derivatives(pendulum(), sample_uniform([(-1, 1)] * 2, 9, seed=2))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_training(ts, p1)
    save_training(load_training(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_requires_uniform_times():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.1, 0.3]), states=np.zeros((3, 1)))


@pytest.mark.parametrize("times", [
    [0.0, math.nan, 2.0, 3.0], [0.0, math.inf], [math.nan], [0.0, 1.0, math.inf, 3.0],
    [-math.inf, 0.0, 1.0]])
def test_trajectory_rejects_non_finite_times(times, tmp_path):
    states = np.zeros((len(times), 1))
    with pytest.raises(ValueError, match="trajectory times must be finite"):
        Trajectory(np.array(times), states)
    path = tmp_path / "trajectory.csv"
    dynamics.write_rows(path, "t,x1", np.column_stack([times, states]))
    with pytest.raises(ValueError, match="trajectory times must be finite"):
        load_trajectory(path)


def test_trajectory_grid_check_works_in_blocks():
    times = np.arange(200_001) * 0.01
    states = np.zeros((times.size, 1))
    tracemalloc.start()
    try:
        Trajectory(times, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024 < times.nbytes
    times[150_000] += 1e-3  # in the last block
    with pytest.raises(ValueError, match="not uniform"):
        Trajectory(times, states)


def test_training_set_shape_check():
    with pytest.raises(ValueError):
        TrainingSet(states=np.zeros((3, 2)), derivatives=np.zeros((4, 2)),
                    provenance="exact")


def test_load_training_header_only_has_no_data_rows(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,x2,dx1,dx2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_training(path)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_rk4_blowup_carries_the_finite_path():
    # From x0 = 2, dx = x^2 blows up near t = 0.5; from 1e200 at step 1.
    for x0, dt in (([2.0], 0.01), ([1e200], 0.01), ([3.0, 2.0], 0.02)):
        square = VectorField.from_exprs(len(x0), ["x1^2", "x2^2"][:len(x0)])
        with pytest.raises(IntegrationBlowupError) as info:
            rk4_integrate(square, x0, 1.0, dt)
        step, partial = info.value.step, info.value.partial
        assert isinstance(partial, Trajectory)
        assert partial.times.size == step
        if step == 1:
            assert np.array_equal(partial.times, [0.0])
            assert np.array_equal(partial.states, [x0])
            continue
        rerun = rk4_integrate(square, x0, (step - 1) * dt, dt)
        assert partial.times.tobytes() == rerun.times.tobytes()
        assert partial.states.tobytes() == rerun.states.tobytes()


def test_rk4_rejects_non_finite_start():
    with pytest.raises(ValueError, match="start state"):
        rk4_integrate(DECAY, [np.inf], 1.0, 0.1)


# ---------------------------------------------------------------------------
# float steps of expression fields


@pytest.mark.parametrize("name, x0", [
    ("pendulum", [1.0, 0.3]), ("rational", [0.7]), ("thomas", [1.0, -1.0, 0.0]),
    ("quartic", [0.3, 0.2]), ("quartic-coupled", [0.3, -0.2]),
    ("mean-field", [0.1, 0.0, 0.05]),
])
def test_float_steps_are_bit_equal_to_array_steps(name, x0, array_rk4_integrate):
    field = make_system(name)
    batch_of_one = lambda x: field.many(x[None, :])[0]  # stepped on arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = rk4_integrate(field, x0, 2.0, 0.01)
        arrays = array_rk4_integrate(batch_of_one, x0, 2.0, 0.01)
    assert floats.states.tobytes() == arrays.states.tobytes()
    assert floats.times.tobytes() == arrays.times.tobytes()


def test_float_step_redoes_a_sin_of_infinity_on_arrays(monkeypatch, array_rk4_integrate):
    # exp(x1) overflows to inf in a stage; the next stage then takes sin(inf),
    # which math.sin rejects and the array step maps to nan.
    field = VectorField.from_exprs(2, ["exp(x1)", "sin(x1)"])
    redone = []
    array_step = dynamics.rk4_step
    monkeypatch.setattr(dynamics, "rk4_step",
                        lambda *args: redone.append(args[1]) or array_step(*args))
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integrate, f in ((rk4_integrate, field),
                             (array_rk4_integrate, lambda x: field.many(x[None, :])[0])):
            with pytest.raises(IntegrationBlowupError) as info:
                integrate(f, [1.0, 0.0], 5.0, 0.1)
            errors.append(info.value)
    floats, arrays = errors
    # The float path redid only its last step on arrays; the batch of one
    # took every step there.
    assert floats.step == arrays.step > 1
    assert len(redone) == 1 + arrays.step
    assert redone[0].tobytes() == floats.partial.states[-1].tobytes()
    assert floats.partial.states.tobytes() == arrays.partial.states.tobytes()


def test_float_step_keeps_the_domain_error(array_rk4_integrate):
    # x1 steps 0.5 -> 0.25 -> 0; the last stage of step 2 divides by zero.
    field = VectorField.from_exprs(2, ["-1", "x1^-1"])
    for integrate, f in ((rk4_integrate, field),
                         (array_rk4_integrate, lambda x: field.many(x[None, :])[0])):
        with pytest.raises(EvaluationDomainError, match="negative power"):
            integrate(f, [0.5, 0.0], 1.0, 0.25)


def test_float_step_blowup_at_step_one_keeps_the_start_state():
    field = VectorField.from_exprs(2, ["x1^3", "x2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError) as info:
            rk4_integrate(field, [1e200, 1.0], 1.0, 0.1)
    assert info.value.step == 1
    assert info.value.partial.states.shape == (1, 2)
    assert info.value.partial.states.tolist() == [[1e200, 1.0]]


def test_float_steps_allocate_only_the_path():
    # Each float state is written into the preallocated (steps+1, n) array;
    # the path is never held as Python floats.  Besides the states, the
    # Trajectory holds its time grid.
    field = thomas()
    rk4_integrate(field, [1.0, -1.0, 0.0], 0.01, 0.01)  # compiles the binding
    tracemalloc.start()
    try:
        traj = rk4_integrate(field, [1.0, -1.0, 0.0], 200.0, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (20_001, 3)
    assert peak < traj.states.nbytes + 4 * traj.times.nbytes + 64 * 1024


# The compiled loop against the loop it replaced: the array step of a batch
# of one.


def _path(integrate, f, x0, t_end, dt):
    """(blowup step or None, states, times) of ``integrate``, which is
    :func:`rk4_integrate` or the array loop."""
    try:
        traj, step = integrate(f, x0, t_end, dt), None
    except IntegrationBlowupError as err:
        traj, step = err.partial, err.step
    return step, traj.states, traj.times


LOOP_FIELDS = {
    **{name: (make_system(name), x0) for name, x0 in [
        ("pendulum", [1.0, 0.3]), ("rational", [0.7]), ("thomas", [1.0, -1.0, 0.0]),
        ("quartic", [0.3, 0.2]), ("quartic-coupled", [0.3, -0.2]),
        ("mean-field", [0.1, 0.0, 0.05])]},
    "thomas-coupled": (thomas(0.25, 0.15), [1.0, -1.0, 0.0]),
    # A non-finite constant has no literal and is bound as _c<slot>; x2 + 2
    # is tested for zero before the division.
    "non-finite-constant": (VectorField(2, Program((
        Add(Mul(Const(-1.0), Var(0)), Inv(Const(math.inf))),
        parse("x1/(x2 + 2)")), 2)), [1.0, 0.5]),
    "nan-constant": (VectorField(1, Program((Mul(Const(math.nan), Var(0)),), 1)), [1.0]),
}


@pytest.mark.parametrize("dt", [1e-3, 0.01, 0.1])
@pytest.mark.parametrize("name", LOOP_FIELDS)
def test_compiled_loop_is_bit_equal_to_the_loops_it_replaced(name, dt, array_rk4_integrate):
    field, x0 = LOOP_FIELDS[name]
    batch_of_one = lambda x: field.many(x[None, :])[0]  # stepped on arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, states, times = _path(rk4_integrate, field, x0, 5.0, dt)
        arrays = _path(array_rk4_integrate, batch_of_one, x0, 5.0, dt)
    assert step == arrays[0]
    assert states.tobytes() == arrays[1].tobytes()
    assert times.tobytes() == arrays[2].tobytes()
    if name == "quartic-coupled":
        assert step == {1e-3: 2698, 0.01: 272, 0.1: 29}[dt]
    if name == "nan-constant":
        assert step == 1


def test_compiled_loop_binds_constants_and_tests_divisors():
    source = LOOP_FIELDS["non-finite-constant"][0].program.source("rk4")
    # Both divisors, 1/inf and x1/(x2 + 2), are tested in each of four stages.
    assert source.count("_fail(") == 8
    assert "1.0 / _c" in source
    # A tree beyond the state dimension is refused before any binding exists.
    with pytest.raises(ValueError,
                       match="^component 0 references x2 but the state dimension is 1$"):
        Program((parse("x2"),), 1)


def test_compiled_loop_resumes_after_a_redone_step_that_ends_finite(monkeypatch,
                                                                   array_rk4_integrate):
    # exp(710) overflows, and math.sin of it stops the float loop before step
    # 1.  The array step maps sin(inf) to nan and nan^0 to 1, so the state
    # stays finite and the float loop resumes from step 1.
    field = VectorField.from_exprs(2, ["-x1", "sin(exp(x1))^0"])
    redone = []
    array_step = dynamics.rk4_step
    monkeypatch.setattr(dynamics, "rk4_step",
                        lambda *args: redone.append(args[1].tolist()) or array_step(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = rk4_integrate(field, [710.0, 0.0], 1.0, 0.01)
        assert redone == [[710.0, 0.0]]
        expected = array_rk4_integrate(lambda x: field.many(x[None, :])[0],
                                       [710.0, 0.0], 1.0, 0.01)
    assert traj.states.shape == (101, 2)
    assert traj.states.tobytes() == expected.states.tobytes()
    assert traj.times.tobytes() == expected.times.tobytes()


def test_synthetic_lift_data_is_bit_equal_to_the_array_loop(monkeypatch,
                                                            array_rk4_integrate):
    expected = reduction.synthetic_lift_data()
    monkeypatch.setattr(reduction, "rk4_integrate", lambda field, *args: array_rk4_integrate(
        lambda x: field.many(x[None, :])[0], *args))
    for got, want in zip(reduction.synthetic_lift_data(), expected):
        assert got.tobytes() == want.tobytes()


def test_blowup_partial_owns_only_its_rows():
    # dx = x^2 from 2 blows up at step 53 of a 100 000-step path; the partial
    # must not keep the preallocated path alive.
    field = VectorField.from_exprs(1, ["x1^2"])
    with pytest.raises(IntegrationBlowupError) as info:
        rk4_integrate(field, [2.0], 1000.0, 0.01)
    states = info.value.partial.states
    assert info.value.step == 53
    assert states.base is None and states.nbytes == 53 * 8
