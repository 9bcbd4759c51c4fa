"""Integrator, samplers, derivative estimation, benchmark systems, CSV IO."""

import math
import warnings

import numpy as np
import pytest

from qendy.dynamics import (
    IntegrationBlowupError, Trajectory, TrainingSet, VectorField,
    exact_derivatives, finite_diff_derivatives, load_training, load_trajectory,
    rk4_integrate, sample_trajectory, sample_uniform, save_training,
    save_trajectory,
)
from qendy.systems import (
    make_system, mean_field, pendulum, quartic_coupled, quartic_decoupled,
    rational_decay, thomas,
)

DECAY = VectorField.from_exprs(1, ["-x1"], name="decay")


# ---------------------------------------------------------------------------
# RK4


def test_rk4_exponential_decay():
    traj = rk4_integrate(DECAY, [1.0], 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-10
    assert traj.times[0] == 0.0 and abs(traj.times[-1] - 1.0) < 1e-12


def test_rk4_zero_field_constant():
    zero = VectorField(2, lambda x: np.zeros_like(x), "zero")
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
    unstable = VectorField(1, lambda x: x ** 3, "cubic")
    with pytest.raises(IntegrationBlowupError) as info:
        rk4_integrate(unstable, [5.0], 10.0, 0.5)
    assert info.value.step >= 1


def test_sample_trajectory_matches_rk4_grid():
    traj = sample_trajectory(DECAY, [1.0], 2.0, 21, substeps=10)
    assert traj.times.shape == (21,)
    assert abs(traj.dt - 0.1) < 1e-14
    assert abs(traj.states[-1, 0] - math.exp(-2.0)) < 1e-10


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


# ---------------------------------------------------------------------------
# derivatives


def test_exact_derivatives_rational():
    ts = exact_derivatives(rational_decay(), np.array([[1.0]]))
    assert abs(ts.derivatives[0, 0] + 0.5) < 1e-15
    assert ts.provenance == "exact"


def test_exact_derivatives_zero_field():
    zero = VectorField(2, lambda x: np.zeros_like(x), "zero")
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
    # forward difference at t=0: (0.01 - 0) / 0.1, an O(dt) error
    assert abs(ts.derivatives[0, 0] - 0.1) < 1e-12
    # backward difference at t=1: (1 - 0.81) / 0.1
    assert abs(ts.derivatives[-1, 0] - 1.9) < 1e-12


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
