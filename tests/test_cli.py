"""End-to-end command-line workflows: outputs, determinism, error handling."""

import builtins
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qendy import cli
from qendy.baselines import state_field
from qendy.cli import main
from qendy.dictionary import Dictionary
from qendy.dynamics import (
    IntegrationBlowupError, exact_derivatives, load_training, rk4_integrate,
    sample_uniform, write_rows,
)
from qendy.model import QuadraticModel, load_model, save_model
from qendy.systems import thomas


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _generate(out, *extra):
    return main(["generate", "--system", "pendulum", "--m", "50",
                 "--out", str(out), *extra])


# ---------------------------------------------------------------------------
# generate


def test_generate_uniform_outputs(tmp_path):
    assert _generate(tmp_path) == 0
    lines = (tmp_path / "training.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,dx1,dx2"
    assert len(lines) == 51
    payload = _read_json(tmp_path / "dictionary.json")
    assert payload["state_dim"] == 2
    assert not (tmp_path / "trajectory.csv").exists()


def test_generate_trajectory_mode(tmp_path):
    rc = main(["generate", "--system", "pendulum", "--x0", "1,0",
               "--t-end", "2.0", "--m", "21", "--out", str(tmp_path)])
    assert rc == 0
    traj_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == "t,x1,x2"
    assert len(traj_lines) == 22
    ts = load_training(tmp_path / "training.csv")
    assert ts.m == 21


def test_generate_finite_difference_derivatives(tmp_path):
    rc = main(["generate", "--system", "pendulum", "--x0", "1,0",
               "--t-end", "1.0", "--m", "101",
               "--derivatives", "finite-difference", "--out", str(tmp_path)])
    assert rc == 0
    ts = load_training(tmp_path / "training.csv")
    from qendy.systems import pendulum
    exact = pendulum(c=0.1).many(ts.states)
    # interior rows are second-order accurate at dt = 0.01
    assert np.abs(ts.derivatives[1:-1] - exact[1:-1]).max() < 1e-3


def test_generate_rejects_finite_differences_without_a_trajectory(tmp_path, capsys):
    # Uniform samples have no trajectory to difference; this wrote exact
    # derivatives.
    rc = _generate(tmp_path, "--derivatives", "finite-difference")
    assert rc == 1
    assert capsys.readouterr().err == ("qendy: error in generate: finite-difference "
                                       "derivatives need a trajectory: give x0\n")
    assert not list(tmp_path.glob("*"))


def test_generate_box_from_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"box": [[0.0, 1.0], [2.0, 3.0]]}))
    rc = main(["generate", "--system", "pendulum", "--m", "40",
               "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    ts = load_training(tmp_path / "training.csv")
    assert ts.states[:, 0].min() >= 0.0 and ts.states[:, 0].max() <= 1.0
    assert ts.states[:, 1].min() >= 2.0 and ts.states[:, 1].max() <= 3.0


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _generate(a) == 0
    assert _generate(b) == 0
    assert (a / "training.csv").read_bytes() == (b / "training.csv").read_bytes()
    assert (a / "dictionary.json").read_bytes() == (b / "dictionary.json").read_bytes()


def test_generate_for_a_system_without_a_companion_dictionary(tmp_path, capsys):
    rc = main(["generate", "--system", "mean-field", "--m", "20", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == f"{tmp_path / 'training.csv'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["training.csv"]
    assert load_training(tmp_path / "training.csv").n == 3


@pytest.mark.parametrize("command, argv", [
    ("generate", ["--system", "pendulum"]),
    ("convergence", ["--system", "pendulum", "--runs", "1"]),
])
def test_a_box_that_does_not_fit_the_system_is_named(tmp_path, capsys, command, argv):
    # This ended in "expected shape (m, 2), got (20, 1)".
    settings = {"box": [[0, 1]]}
    if command == "convergence":
        settings["m_list"] = [10, 20]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main([command, *argv, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"qendy: error in {command}: 'box' must hold one [lo, hi] pair per coordinate "
        "of system 'pendulum', which has dimension 2, got 1\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("x0", ["1,,0", "1,0,", ",1,0", "1, ,0", "1,a"])
def test_a_start_state_with_an_empty_field_is_refused(tmp_path, capsys, x0):
    # An empty field was dropped, so "1,,0" ran as the start state (1, 0);
    # "1,a" ended in "error in generate: could not convert string to float".
    assert _generate(tmp_path, "--x0", x0) == 1
    assert capsys.readouterr().err == (
        "qendy: error in config: 'x0' must be a list of numbers or comma-separated "
        f"text, got \"{x0}\"\n")
    assert list(tmp_path.glob("*")) == []


# ---------------------------------------------------------------------------
# fit


def test_fit_quadratic_model(tmp_path):
    _generate(tmp_path)
    rc = main(["fit", "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(tmp_path / "dictionary.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    model = _read_json(tmp_path / "model.json")
    assert np.asarray(model["A"]).shape == (4, 16)
    summary = _read_json(tmp_path / "fit_summary.json")
    assert summary["method"] == "qendy"
    assert summary["m"] == 50
    assert summary["loss"] < 1e-10


def test_fit_is_deterministic(tmp_path):
    _generate(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["fit", "--training", str(tmp_path / "training.csv"),
                   "--dictionary", str(tmp_path / "dictionary.json"),
                   "--out", str(out)])
        assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_fit_sindy_writes_xi(tmp_path):
    _generate(tmp_path)
    rc = main(["fit", "--method", "sindy",
               "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(tmp_path / "dictionary.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    xi = np.asarray(_read_json(tmp_path / "model.json")["Xi"])
    expected = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -0.1, -1.0, 0.0]])
    assert np.abs(xi - expected).max() < 1e-8


def test_fit_gedmd_writes_theta(tmp_path):
    _generate(tmp_path)
    rc = main(["fit", "--method", "gedmd",
               "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(tmp_path / "dictionary.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert np.asarray(_read_json(tmp_path / "model.json")["Theta"]).shape == (4, 4)


def test_fit_builtin_dictionary_name(tmp_path):
    _generate(tmp_path)
    rc = main(["fit", "--training", str(tmp_path / "training.csv"),
               "--dictionary", "pendulum", "--out", str(tmp_path)])
    assert rc == 0


def test_fit_identity_dictionary_takes_the_training_state_dimension(tmp_path):
    assert main(["generate", "--system", "thomas", "--m", "30",
                 "--out", str(tmp_path)]) == 0
    rc = main(["fit", "--method", "sindy", "--training", str(tmp_path / "training.csv"),
               "--dictionary", "identity", "--out", str(tmp_path / "fit")])
    assert rc == 0
    model = _read_json(tmp_path / "fit" / "model.json")
    assert model["dictionary"] == {"state_dim": 3, "basis": ["x1", "x2", "x3"]}
    assert np.asarray(model["Xi"]).shape == (3, 3)


# ---------------------------------------------------------------------------
# simulate


def _fit_pendulum(tmp_path):
    _generate(tmp_path)
    main(["fit", "--training", str(tmp_path / "training.csv"),
          "--dictionary", str(tmp_path / "dictionary.json"),
          "--out", str(tmp_path)])
    return tmp_path / "model.json"


def test_simulate_against_reference(tmp_path):
    model = _fit_pendulum(tmp_path)
    rc = main(["simulate", "--model", str(model), "--x0", "1,0",
               "--t-end", "1.0", "--dt", "0.01", "--system", "pendulum",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "simulation.csv").read_text().splitlines()
    assert lines[0] == "t,x1_model,x2_model,x1_true,x2_true,blowup"
    assert len(lines) == 102
    summary = _read_json(tmp_path / "simulation_summary.json")
    assert summary["sup_error"] < 1e-4
    assert summary["blowup_step"] is None


def test_simulate_without_reference(tmp_path):
    model = _fit_pendulum(tmp_path)
    rc = main(["simulate", "--model", str(model), "--x0", "0.5,0",
               "--t-end", "0.5", "--dt", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "simulation.csv").read_text().splitlines()
    assert lines[0] == "t,x1_model,x2_model,blowup"
    summary = _read_json(tmp_path / "simulation_summary.json")
    assert "sup_error" not in summary


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_blowup_is_flagged(tmp_path):
    d = Dictionary.from_strings(1, ["x1"])
    unstable = QuadraticModel(np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1),
                              np.array([[1.0]]), d)
    model_path = tmp_path / "unstable.json"
    save_model(unstable, model_path)
    rc = main(["simulate", "--model", str(model_path), "--x0", "2",
               "--t-end", "1.0", "--dt", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    summary = _read_json(tmp_path / "simulation_summary.json")
    assert summary["blowup_step"] is not None
    last = (tmp_path / "simulation.csv").read_text().splitlines()[-1]
    assert last.endswith(",1.0")


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_reembed_integrates_the_state_field(tmp_path):
    # --reembed steps a qendy model's state-space field with rk4_integrate;
    # dz = z^2 from 2 blows up on it too, and the blowup is flagged.
    d = Dictionary.from_strings(1, ["x1"])
    unstable = QuadraticModel(np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1),
                              np.array([[1.0]]), d)
    save_model(unstable, tmp_path / "unstable.json")
    cases = ((_fit_pendulum(tmp_path), [1.0, 0.0]), (tmp_path / "unstable.json", [2.0]))
    for path, x0 in cases:
        model = load_model(path)
        try:
            want, blowup = rk4_integrate(state_field(model), x0, 1.0, 0.01), None
        except IntegrationBlowupError as err:
            want, blowup = err.partial, err.step
        flags = np.zeros(want.times.size)
        flags[-1] = blowup is not None
        header = "t," + ",".join(f"x{j + 1}_model" for j in range(model.state_dim))
        write_rows(tmp_path / "want.csv", header + ",blowup",
                   np.column_stack([want.times, want.states, flags]))
        for run in ("a", "b"):
            assert main(["simulate", "--model", str(path), "--x0", ",".join(map(str, x0)),
                         "--t-end", "1.0", "--dt", "0.01", "--reembed",
                         "--out", str(tmp_path / run)]) == 0
            assert ((tmp_path / run / "simulation.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes())
            assert _read_json(tmp_path / run / "simulation_summary.json")[
                "blowup_step"] == blowup
    assert blowup is not None


def test_simulate_sindy_model(tmp_path):
    _generate(tmp_path)
    main(["fit", "--method", "sindy",
          "--training", str(tmp_path / "training.csv"),
          "--dictionary", str(tmp_path / "dictionary.json"),
          "--out", str(tmp_path)])
    rc = main(["simulate", "--model", str(tmp_path / "model.json"),
               "--x0", "1,0", "--t-end", "0.5", "--dt", "0.01",
               "--system", "pendulum", "--out", str(tmp_path)])
    assert rc == 0
    assert _read_json(tmp_path / "simulation_summary.json")["sup_error"] < 1e-4


# ---------------------------------------------------------------------------
# convergence


def test_convergence_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_list": [50, 500]}))
    rc = main(["convergence", "--system", "pendulum", "--runs", "3",
               "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    runs_lines = (tmp_path / "convergence_runs.csv").read_text().splitlines()
    assert runs_lines[0] == "m,run,e_R,e_s1,e_s2,e_s3,e_s4"
    assert len(runs_lines) == 1 + 2 * 3
    agg_lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert agg_lines[0] == "m,e_R_mean,e_s_mean"
    summary = _read_json(tmp_path / "convergence_summary.json")
    assert summary["m_list"] == [50, 500]
    assert summary["runs"] == 3
    assert summary["slope_R"] < 0.0
    assert summary["slope_s"] < 0.0


def test_convergence_thread_count_does_not_change_results(tmp_path):
    outputs = {}
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m_list": [50, 200], "workers": threads}))
        assert main(["convergence", "--system", "pendulum", "--runs", "4",
                     "--config", str(config), "--out", str(out)]) == 0
        outputs[threads] = (out / "convergence_runs.csv").read_bytes()
    assert outputs[1] == outputs[3]


def test_convergence_with_an_explicit_dictionary(tmp_path):
    # A dictionary file equal to the system's companion gives the default
    # study; the builtin identity takes the system's state dimension.
    _generate(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_list": [20, 40]}))
    runs = {}
    for name, extra in [("default", []),
                        ("file", ["--dictionary", str(tmp_path / "dictionary.json")]),
                        ("identity", ["--dictionary", "identity"])]:
        out = tmp_path / name
        assert main(["convergence", "--system", "pendulum", "--runs", "2",
                     "--config", str(config), *extra, "--out", str(out)]) == 0
        runs[name] = (out / "convergence_runs.csv").read_text()
    assert runs["file"] == runs["default"]
    assert runs["identity"].splitlines()[0] == "m,run,e_R,e_s1,e_s2"


@pytest.mark.parametrize("workers", [0, -3])
def test_convergence_needs_at_least_one_worker(tmp_path, capsys, workers):
    # A worker count below 1 ran serially.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_list": [10, 20], "workers": workers}))
    out = tmp_path / "out"
    assert main(["convergence", "--runs", "1", "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"qendy: error in convergence: need at least one worker, got {workers}\n")
    assert list(out.glob("*")) == []


# ---------------------------------------------------------------------------
# reduce


def test_reduce_synthetic_benchmark(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 200, "lift_dim": 20}))
    rc = main(["reduce", "--k", "3", "--config", str(config),
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "snapshots.csv").exists()
    pca = _read_json(tmp_path / "pca.json")
    assert np.asarray(pca["components"]).shape == (3, 20)
    forecast_lines = (tmp_path / "forecast.csv").read_text().splitlines()
    assert forecast_lines[0] == "t,r1_true,r2_true,r3_true,r1_model,r2_model,r3_model"
    assert len(forecast_lines) == 201
    report = _read_json(tmp_path / "reduction_report.json")
    assert report["k"] == 3
    assert report["n_train"] == 160
    assert report["forecast_rel_rms"] < 0.2
    assert report["spectral_gap"] > 10.0


def test_reduce_reads_snapshot_file(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(150) * 0.1
    base = np.column_stack([np.cos(t), np.sin(t), np.cos(2 * t)])
    q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, base @ q.T, delimiter=",")
    rc = main(["reduce", "--data", str(data_path), "--k", "3",
               "--dt", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    assert not (tmp_path / "snapshots.csv").exists()
    assert len((tmp_path / "forecast.csv").read_text().splitlines()) == 151


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_reduce_rejects_a_snapshot_file_without_rows(tmp_path, capsys, text):
    data_path = tmp_path / "data.csv"
    data_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["reduce", "--data", str(data_path), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in reduce: {data_path} has no data rows\n")


def test_reduce_writes_a_null_gap_when_k_covers_the_spectrum(tmp_path):
    # With k equal to the snapshot width there is no sigma_{k+1}: the gap is
    # infinite, which JSON cannot hold.
    t = np.arange(40) * 0.1
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, np.column_stack([np.cos(t), np.sin(t), np.cos(2 * t)]),
               delimiter=",")
    rc = main(["reduce", "--data", str(data_path), "--k", "3", "--dt", "0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "reduction_report.json").read_text()
    assert json.loads(text)["spectral_gap"] is None
    assert "Infinity" not in text


@pytest.mark.parametrize("noise, shown", [(-1, "-1.0"), ("nan", "nan"), ("inf", "inf")])
def test_reduce_rejects_a_noise_that_is_not_finite_and_non_negative(tmp_path, capsys,
                                                                      noise, shown):
    # -1 and nan added no noise and exited 0; inf ended in "SVD did not converge".
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": noise, "samples": 50, "lift_dim": 5}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reduce", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"qendy: error in reduce: noise must be a finite number >= 0, got {shown}\n")
    assert list(out.glob("*")) == []


# ---------------------------------------------------------------------------
# report


def test_report_quadratic_model(tmp_path):
    model = _fit_pendulum(tmp_path)
    rc = main(["report", "--model", str(model),
               "--training", str(tmp_path / "training.csv"),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "matrix,row,col,value"
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"A", "B", "C", "G"}
    # A 4x16 + B 4x4 + C 1x4 + G 2x4 entries
    assert len(lines) == 1 + 64 + 16 + 4 + 8
    report = _read_json(tmp_path / "report.json")
    assert report["kind"] == "qendy"
    assert report["loss"] < 1e-10
    assert set(report["nonzeros"]) == {"A", "B", "C"}


def test_report_gedmd_eigenvalues(tmp_path):
    rc = main(["generate", "--system", "quartic", "--m", "60",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    main(["fit", "--method", "gedmd",
          "--training", str(tmp_path / "training.csv"),
          "--dictionary", str(tmp_path / "dictionary.json"),
          "--out", str(tmp_path)])
    rc = main(["report", "--model", str(tmp_path / "model.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    report = _read_json(tmp_path / "report.json")
    assert report["kind"] == "gedmd"
    reals = sorted(round(re, 6) for re, _ in report["eigenvalues"])
    assert reals == [1.0, 2.0, 8.0]


# ---------------------------------------------------------------------------
# error handling


def test_unknown_system_fails_cleanly(tmp_path, capsys):
    rc = main(["generate", "--system", "nonexistent", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in generate:")
    assert "nonexistent" in err


def test_unknown_config_key_fails(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in config:")
    assert "bogus" in err


@pytest.mark.parametrize("text", ["5", "[1, 2]"], ids=["number", "array"])
def test_a_config_that_is_not_an_object_fails_cleanly(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in config: {config} does not hold a JSON object\n")


def test_a_toml_config_is_read_where_python_has_tomllib(tmp_path, capsys):
    config = tmp_path / "config.toml"
    config.write_text("m = 30\nseed = 4\nbox = [[0.0, 1.0], [-2.0, 2.0]]\n")
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(tmp_path / "toml")])
    if sys.version_info < (3, 11):
        assert rc == 1
        assert capsys.readouterr().err == (
            "qendy: error in config: TOML config needs Python >= 3.11: "
            "No module named 'tomllib'\n")
        return
    assert rc == 0
    (tmp_path / "config.json").write_text(json.dumps(
        {"m": 30, "seed": 4, "box": [[0.0, 1.0], [-2.0, 2.0]]}))
    assert main(["generate", "--system", "pendulum", "--config",
                 str(tmp_path / "config.json"), "--out", str(tmp_path / "json")]) == 0
    assert ((tmp_path / "toml" / "training.csv").read_bytes()
            == (tmp_path / "json" / "training.csv").read_bytes())


def test_a_toml_config_without_tomllib_fails_cleanly(tmp_path, capsys, monkeypatch):
    # A None entry in sys.modules makes the import fail as on Python 3.10.
    monkeypatch.setitem(sys.modules, "tomllib", None)
    config = tmp_path / "config.toml"
    config.write_text("m = 30\n")
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in config: TOML config needs Python >= 3.11: "
        "import of tomllib halted; None in sys.modules\n")
    assert not (tmp_path / "out").exists()


def _failing_work_argv(tmp_path, case):
    """(command, argv without --out) of a run whose inputs parse but whose
    work fails: each used to leave an empty output directory."""
    _generate(tmp_path)
    training = str(tmp_path / "training.csv")
    if case == "generate":
        return "generate", ["generate", "--system", "thomas", "--x0", "1,0"]
    if case == "fit-dimension":
        return "fit", ["fit", "--training", training, "--dictionary", "thomas9"]
    if case == "fit-lambda":
        return "fit", ["fit", "--training", training, "--dictionary", "pendulum",
                       "--lambda", "-1"]
    if case == "reduce":
        return "reduce", ["reduce", "--k", "200"]
    if case == "reduce-forecast":
        # The forecast stays finite, but its error overflows to inf, which
        # reduction_report.json cannot hold: the four files before it used to
        # be written.
        config = tmp_path / "reduce.json"
        config.write_text(json.dumps({"samples": 100, "lift_dim": 10}))
        return "reduce", ["reduce", "--config", str(config)]
    model = _fit_method(tmp_path, "qendy")
    if case == "simulate-error":
        # dz = 10 z: the path reaches ~1e160 at t 37, and its squared error
        # against the pendulum overflows to an inf rms_error.
        grow = json.loads(model.read_text())
        size = len(grow["B"])
        grow.update(A=np.zeros((size, size * size)).tolist(), B=(10 * np.eye(size)).tolist(),
                    C=[0.0] * size)
        path = tmp_path / "grow.json"
        path.write_text(json.dumps(grow))
        return "simulate", ["simulate", "--model", str(path), "--x0", "1,0",
                            "--t-end", "37", "--dt", "0.01", "--system", "pendulum"]
    return "report", ["report", "--model", str(model), "--training", str(model)]


# The error of a case whose JSON artifact holds a non-finite value names it.
_NAMED = {"reduce-forecast": "reduction_report.json: 'forecast_rel_rms' is inf",
          "simulate-error": "simulation_summary.json: 'rms_error' is inf"}


@pytest.mark.parametrize("case", [
    "generate", "fit-dimension", "fit-lambda", "reduce", "reduce-forecast",
    "simulate-error", "report"])
def test_a_failed_command_leaves_no_output_directory(tmp_path, capsys, case):
    command, argv = _failing_work_argv(tmp_path, case)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qendy: error in {command}: ")
    assert err.count("\n") == 1
    if case in _NAMED:
        assert err == f"qendy: error in {command}: {_NAMED[case]}\n"
    assert not out.exists()


@pytest.mark.parametrize("value, words", [
    (float("inf"), "is inf"), ([[0.0, float("nan")]], "holds nan"),
    ({"a": [1.0, -float("inf")]}, "holds -inf")])
def test_a_non_finite_json_value_is_named_by_artifact_and_key(tmp_path, capsys,
                                                              monkeypatch, value, words):
    artifacts = {"a.csv": ("x", [[1.0]]), "b.json": {"fine": [1.0, 2], "bad": value}}
    monkeypatch.setitem(cli._COMMANDS, "report", (lambda cfg: artifacts, ""))
    out = tmp_path / "out"
    assert main(["report", "--model", "m.json", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qendy: error in report: b.json: 'bad' {words}\n"
    assert not out.exists()


def _valid_argv(tmp_path, command):
    """(argv without --out, the files it writes in order) of a small run."""
    if command == "generate":
        return (["generate", "--system", "pendulum", "--x0", "1,0", "--t-end", "1",
                 "--m", "11"], ["trajectory.csv", "training.csv", "dictionary.json"])
    if command == "convergence":
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"m_list": [50, 500]}))
        return (["convergence", "--runs", "2", "--config", str(config)],
                ["convergence_runs.csv", "convergence.csv", "convergence_summary.json"])
    if command == "reduce":
        config = tmp_path / "reduce.json"
        config.write_text(json.dumps({"samples": 200, "lift_dim": 20}))
        return (["reduce", "--config", str(config)],
                ["snapshots.csv", "pca.json", "reduced_model.json", "forecast.csv",
                 "reduction_report.json"])
    model = str(_fit_method(tmp_path, "qendy"))
    if command == "fit":
        return ["fit", "--training", str(tmp_path / "training.csv"),
                "--dictionary", "pendulum"], ["model.json", "fit_summary.json"]
    if command == "simulate":
        return (["simulate", "--model", model, "--x0", "1,0", "--t-end", "0.1"],
                ["simulation.csv", "simulation_summary.json"])
    return ["report", "--model", model], ["coefficients.csv", "report.json"]


@pytest.mark.parametrize("command", ["generate", "fit", "simulate", "convergence",
                                     "reduce", "report"])
def test_a_command_prints_the_files_in_its_output_directory_as_it_wrote_them(
        tmp_path, capsys, monkeypatch, command):
    argv, names = _valid_argv(tmp_path, command)
    capsys.readouterr()
    written, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    out = tmp_path / "out"
    monkeypatch.setattr(builtins, "open", recording_open)
    rc = main([*argv, "--out", str(out)])
    monkeypatch.undo()
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == written == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(names)


def test_a_model_file_that_is_not_an_object_fails_cleanly(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("5")
    rc = main(["simulate", "--model", str(model), "--x0", "1,0", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in simulate: {model} does not hold a JSON object\n")


def test_a_model_dictionary_that_is_not_an_object_fails_cleanly(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"Xi": [[1.0]], "dictionary": ["x1"]}))
    rc = main(["report", "--model", str(model), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in report: dictionary JSON is not an object\n")


def test_a_dictionary_file_that_is_not_an_object_fails_cleanly(tmp_path, capsys):
    _generate(tmp_path)
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text("[1]")
    capsys.readouterr()
    rc = main(["fit", "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(dictionary), "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == "qendy: error in fit: dictionary JSON is not an object\n"


def test_system_params_that_are_not_an_object_fail_cleanly(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": [1]}))
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in config: 'params' must be an object mapping parameter names "
        "to numbers, got [1]\n")
    assert not (tmp_path / "training.csv").exists()


@pytest.mark.parametrize("value", [True, "0.5", None], ids=["true", "text", "null"])
def test_system_params_that_are_not_numbers_fail_cleanly(tmp_path, capsys, value):
    # true and "0.5" ran as 1.0 and 0.5, and null failed in generate with
    # "float() argument must be a string or a real number, not 'NoneType'".
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"c": value}}))
    out = tmp_path / "out"
    rc = main(["generate", "--system", "pendulum", "--m", "5", "--x0", "1,0",
               "--t-end", "1", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in config: 'params' must be an object mapping parameter names "
        f"to numbers, got {{\"c\": {json.dumps(value)}}}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_system_params_that_are_not_finite_fail_cleanly(tmp_path, capsys, value):
    # The config reader passes them; the system said "unknown function".
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"c": value}}))
    out = tmp_path / "out"
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in generate: parameter 'c' must be finite, got {value}\n")
    assert not out.exists()


def test_system_params_are_read_as_numbers(tmp_path):
    # A parameter reaches the system, and an integer writes the same data as
    # the float it reads as.
    for name, params in (("int", {"c": 1}), ("float", {"c": 1.0}), ("default", {})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"params": params}))
        assert main(["generate", "--system", "pendulum", "--m", "5", "--x0", "1,0",
                     "--t-end", "1", "--config", str(config),
                     "--out", str(tmp_path / name)]) == 0
    data = {name: (tmp_path / name / "training.csv").read_bytes()
            for name in ("int", "float", "default")}
    assert data["int"] == data["float"] != data["default"]


def test_a_sample_count_too_large_to_hold_fails_cleanly(tmp_path, capsys):
    # This ended in a traceback; NumPy refuses the allocation before it takes
    # any memory.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 1e15}))
    out = tmp_path / "out"
    rc = main(["generate", "--system", "pendulum", "--config", str(config),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in generate: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


_GENERATE = ["--system", "pendulum"]
_FIT_FILES = ["--training", "training.csv", "--dictionary", "pendulum"]
_SIMULATE_FILES = ["--model", "model.json", "--x0", "1,0"]


@pytest.mark.parametrize("command, config, argv, shown", [
    ("generate", {"box": [[0]]}, _GENERATE,
     "'box' must be a list of [lo, hi] pairs, got [[0]]"),
    ("generate", {"box": 5}, _GENERATE, "'box' must be a list of [lo, hi] pairs, got 5"),
    ("generate", {"m": None}, _GENERATE, "'m' must be an integer, got null"),
    ("generate", {"substeps": None}, [*_GENERATE, "--x0", "1,0"],
     "'substeps' must be an integer, got null"),
    ("generate", {"m": 1e400}, _GENERATE, "'m' must be an integer, got Infinity"),
    ("generate", {"m": 50.7}, _GENERATE, "'m' must be an integer, got 50.7"),
    ("generate", {"x0": {"a": 1}}, _GENERATE,
     """'x0' must be a list of numbers or comma-separated text, got {"a": 1}"""),
    ("generate", {"out": 5}, _GENERATE, "'out' must be a string, got 5"),
    ("generate", {"derivatives": "fd"}, _GENERATE,
     "'derivatives' must be one of exact, finite-difference, got \"fd\""),
    ("convergence", {"m_list": 5}, [], "'m_list' must be a list of integers, got 5"),
    ("convergence", {"runs": None}, [], "'runs' must be an integer, got null"),
    ("convergence", {"relative": "yes"}, [],
     "'relative' must be true or false, got \"yes\""),
    ("fit", {"lambda": None}, _FIT_FILES, "'lambda' must be a number, got null"),
    ("fit", {"rcond": [1]}, _FIT_FILES, "'rcond' must be a number, got [1]"),
    ("fit", {"force_c_zero": "false"}, _FIT_FILES,
     "'force_c_zero' must be true or false, got \"false\""),
    ("fit", {"method": "lstsq"}, _FIT_FILES,
     "'method' must be one of qendy, sindy, gedmd, got \"lstsq\""),
    ("simulate", {"dt": None}, _SIMULATE_FILES, "'dt' must be a number, got null"),
    ("simulate", {"reembed": "no"}, _SIMULATE_FILES,
     "'reembed' must be true or false, got \"no\""),
    ("reduce", {"samples": None}, [], "'samples' must be an integer, got null"),
], ids=["box-pair", "box-number", "m-null", "substeps-null", "m-infinite",
        "m-fraction", "x0-object",
        "out-number", "derivatives-choice", "m_list-number", "runs-null",
        "relative-text", "lambda-null", "rcond-list", "force_c_zero-text",
        "method-choice", "dt-null", "reembed-text", "samples-null"])
def test_a_config_value_of_the_wrong_type_fails_cleanly(tmp_path, capsys, command,
                                                        config, argv, shown):
    # These raised IndexError or TypeError, or ran as if a text were true.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    if "out" not in config:
        argv = [*argv, "--out", str(tmp_path / "out")]
    rc = main([command, "--config", str(path), *argv])
    assert rc == 1
    assert capsys.readouterr().err == f"qendy: error in config: {shown}\n"
    assert list(tmp_path.glob("*")) == [path]


def test_a_null_config_value_leaves_a_null_default_unset(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"box": None, "x0": None}))
    assert _generate(tmp_path / "a", "--config", str(config)) == 0
    assert _generate(tmp_path / "b") == 0
    assert ((tmp_path / "a" / "training.csv").read_bytes()
            == (tmp_path / "b" / "training.csv").read_bytes())


@pytest.mark.parametrize("command, config, argv, shown", [
    ("fit", {}, [*_FIT_FILES, "--threshold", "0.5"],
     "'threshold' is not read by method 'qendy'"),
    ("fit", {}, [*_FIT_FILES, "--method", "sindy", "--lambda", "5"],
     "'lambda' is not read by method 'sindy'"),
    ("fit", {}, [*_FIT_FILES, "--method", "sindy", "--lambda=-5", "--force-c-zero"],
     "'lambda' is not read by method 'sindy'"),
    ("fit", {"force_c_zero": True}, [*_FIT_FILES, "--method", "sindy"],
     "'force_c_zero' is not read by method 'sindy'"),
    ("fit", {}, [*_FIT_FILES, "--method", "gedmd", "--threshold=-1"],
     "'threshold' is not read by method 'gedmd'"),
    ("generate", {"box": [[-1, 1], [-1, 1]]}, [*_GENERATE, "--x0", "1,0"],
     "'box' is not read with 'x0'"),
    ("generate", {"seed": 3}, [*_GENERATE, "--x0", "1,0"], "'seed' is not read with 'x0'"),
    ("generate", {}, [*_GENERATE, "--t-end", "5"], "'t_end' is not read without 'x0'"),
    ("generate", {"substeps": 20}, _GENERATE, "'substeps' is not read without 'x0'"),
    ("simulate", {"params": {"c": 0.2}}, _SIMULATE_FILES,
     "'params' is not read without 'system'"),
    ("reduce", {"seed": 2}, ["--data", "snapshots.csv"], "'seed' is not read with 'data'"),
], ids=["qendy-threshold", "sindy-lambda", "sindy-lambda-negative", "sindy-force_c_zero",
        "gedmd-threshold", "trajectory-box", "trajectory-seed", "uniform-t_end",
        "uniform-substeps", "params-without-system", "data-seed"])
def test_a_setting_that_its_mode_does_not_read_is_refused(tmp_path, capsys, command,
                                                          config, argv, shown):
    # Each ran to exit 0 and wrote what it would have without the setting.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main([command, "--config", str(path), *argv, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"qendy: error in config: {shown}\n"
    assert list(tmp_path.glob("*")) == [path]


def test_an_unread_setting_at_its_default_is_accepted():
    from qendy import cli
    for command, given in (
            ("fit", {"training": "t", "dictionary": "d", "method": "sindy", "lambda": 0,
                     "force_c_zero": False}),
            ("fit", {"training": "t", "dictionary": "d", "threshold": 0.0}),
            ("generate", {"system": "pendulum", "x0": "1,0", "seed": 0, "box": None}),
            ("generate", {"system": "pendulum", "t_end": 10, "substeps": 10}),
            ("simulate", {"model": "m", "x0": "1,0", "params": {}})):
        cfg = cli._merge_config(command, {}, given)
        assert all(cfg[key] == value for key, value in given.items() if key != "x0")


def test_missing_required_argument_fails(tmp_path, capsys):
    rc = main(["fit", "--out", str(tmp_path)])
    assert rc == 1
    assert "training" in capsys.readouterr().err


def test_missing_model_file_fails(tmp_path, capsys):
    rc = main(["report", "--model", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("qendy: error in report:")


def test_unknown_fit_method_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "other", "--training", "x", "--dictionary", "y"])
    assert exc.value.code == 2


def test_fit_rejects_non_finite_lift(tmp_path, capsys):
    training = tmp_path / "training.csv"
    training.write_text("x1,dx1\n0.5,1.0\n10.0,1.0\n")
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1", "exp(x1^3)"]}))
    rc = main(["fit", "--training", str(training), "--dictionary", str(dictionary),
               "--out", str(tmp_path / "fit")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in fit:")
    assert "exp(x1^3)" in err and "sample 1" in err


def test_convergence_with_one_sample_size_fails(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_list": [100]}))
    rc = main(["convergence", "--system", "pendulum", "--runs", "2",
               "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("qendy: error in convergence:")
    assert not (tmp_path / "convergence_summary.json").exists()


# ---------------------------------------------------------------------------
# one model-file protocol across simulate and report


def _fit_method(tmp_path, method):
    _generate(tmp_path)
    out = tmp_path / f"fit-{method}"
    rc = main(["fit", "--method", method,
               "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(tmp_path / "dictionary.json"),
               "--out", str(out)])
    assert rc == 0
    return out / "model.json"


def test_simulate_gedmd_model(tmp_path):
    model = _fit_method(tmp_path, "gedmd")
    rc = main(["simulate", "--model", str(model), "--x0", "1,0",
               "--t-end", "0.5", "--dt", "0.01", "--system", "pendulum",
               "--out", str(tmp_path / "sim")])
    assert rc == 0
    summary = _read_json(tmp_path / "sim" / "simulation_summary.json")
    assert summary["blowup_step"] is None
    assert summary["samples"] == 51
    assert summary["sup_error"] < 1e-4


@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
def test_simulate_rejects_a_start_state_of_the_wrong_length(tmp_path, capsys, method):
    model = _fit_method(tmp_path, method)
    capsys.readouterr()
    rc = main(["simulate", "--model", str(model), "--x0", "1,0,0", "--system", "pendulum",
               "--out", str(tmp_path / "sim")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in simulate: expected shape (2,), got (3,)\n")
    assert not (tmp_path / "sim" / "simulation.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_sindy_blowup_is_flagged_and_truncated(tmp_path, array_rk4_integrate):
    from qendy.baselines import SindyModel, sindy_to_json
    d = Dictionary.from_strings(1, ["x1", "x1^2"])
    path = tmp_path / "sindy.json"
    path.write_text(json.dumps(sindy_to_json(SindyModel(np.array([[0.0, 1.0]]), d))))
    rc = main(["simulate", "--model", str(path), "--x0", "2",
               "--t-end", "1.0", "--dt", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    summary = _read_json(tmp_path / "simulation_summary.json")
    step = summary["blowup_step"]
    assert step is not None and summary["samples"] == step
    rows = np.loadtxt(tmp_path / "simulation.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (step, 3)
    assert np.array_equal(rows[:, 2], np.eye(1, step, step - 1)[0])
    rerun = array_rk4_integrate(lambda x: x * x, [2.0], (step - 1) * 0.01, 0.01)
    assert np.array_equal(rows[:, 1], rerun.states[:, 0])


def test_report_sindy_model_with_training(tmp_path):
    model = _fit_method(tmp_path, "sindy")
    rc = main(["report", "--model", str(model),
               "--training", str(tmp_path / "training.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == 0
    report = _read_json(tmp_path / "report" / "report.json")
    assert report["kind"] == "sindy"
    assert report["state_dim"] == 2
    assert report["loss"] < 1e-10
    assert "regularized_loss" not in report
    lines = (tmp_path / "report" / "coefficients.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 4
    assert {line.split(",")[0] for line in lines[1:]} == {"Xi"}


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_model_file_without_coefficients_fails(tmp_path, capsys, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"state_dim": 1,
                                "dictionary": {"state_dim": 1, "basis": ["x1"]}}))
    argv = [command, "--model", str(path), "--out", str(tmp_path)]
    if command == "simulate":
        argv += ["--x0", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qendy: error in {command}:")
    assert "none of the keys A, Xi, Theta" in err


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("method, key, field", [("sindy", "Xi", "xi"),
                                                ("gedmd", "Theta", "theta")])
def test_a_model_file_with_a_null_coefficient_fails_and_writes_nothing(
        tmp_path, capsys, command, method, key, field):
    # SINDy and gEDMD files were read without a finite check: report wrote nan
    # and simulate flagged a blowup at step 1, or LAPACK failed, all exit 0.
    path = _fit_method(tmp_path, method)
    obj = _read_json(path)
    obj[key][0][1] = None
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [command, "--model", str(path), "--out", str(out)]
    if command == "simulate":
        argv += ["--x0", "1,0", "--system", "pendulum"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"qendy: error in {command}: {field} contains non-finite entries\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("method, drop", [("qendy", "B"), ("sindy", "dictionary")])
def test_a_model_file_that_lacks_a_key_names_the_file_and_the_key(
        tmp_path, capsys, method, drop):
    # This printed only the key: "qendy: error in report: 'B'".
    path = _fit_method(tmp_path, method)
    obj = _read_json(path)
    del obj[drop]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["report", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"qendy: error in report: model file {path} lacks key '{drop}'\n")


@pytest.mark.parametrize("key, value, shown", [
    ("lambda", None, "lambda must be a finite number >= 0, got null"),
    ("lambda", -1, "lambda must be a finite number >= 0, got -1"),
    ("m", 2.5, "m must be an integer >= 0, got 2.5"),
    ("m", -5, "m must be an integer >= 0, got -5"),
    ("force_c_zero", "no", 'force_c_zero must be true or false, got "no"'),
    ("provenance", 5, "provenance must be a string, got 5"),
], ids=["lambda-null", "lambda-negative", "m-fraction", "m-negative", "force_c_zero-text",
        "provenance-number"])
def test_a_model_file_with_bad_fit_metadata_fails_cleanly(tmp_path, capsys, key, value,
                                                          shown):
    # null ended in a TypeError; -1, 2.5, -5, "no" and 5 were read as -1.0,
    # 2, -5, true and "5".
    path = _fit_method(tmp_path, "qendy")
    obj = _read_json(path)
    obj[key] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["report", "--model", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qendy: error in report: {shown}\n"
    assert not out.exists()


def test_a_model_file_with_a_basis_entry_that_is_not_text_fails_cleanly(tmp_path, capsys):
    path = _fit_method(tmp_path, "sindy")
    obj = _read_json(path)
    obj["dictionary"]["basis"][1] = 5
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["report", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "qendy: error in report: dictionary basis entry 1 must be a string, got 5\n")


@pytest.mark.parametrize("dictionary, shown", [
    ({"state_dim": 2, "basis": ["x1", 5]}, "dictionary basis entry 1 must be a string, got 5"),
    ({"state_dim": 2, "basis": "x1"},
     'dictionary basis must be a list of expression strings, got "x1"'),
    ({"state_dim": 2.7, "basis": ["x1", "x2"]},
     "dictionary state_dim must be an integer, got 2.7"),
    ({"state_dim": None, "basis": ["x1", "x2"]},
     "dictionary state_dim must be an integer, got null"),
], ids=["entry-number", "basis-text", "state_dim-fraction", "state_dim-null"])
def test_a_malformed_dictionary_file_fails_cleanly(tmp_path, capsys, dictionary, shown):
    # A non-text entry raised TypeError, and state_dim 2.7 was read as 2.
    _generate(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dictionary))
    capsys.readouterr()
    rc = main(["fit", "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(path), "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == f"qendy: error in fit: {shown}\n"
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
@pytest.mark.parametrize("g, shown", [
    ({"a": 1}, "G must be an array of numbers"),
    ([[1.0, 0.0, 0.0, 0.0], [0.0, None, 0.0, 0.0]], "G contains non-finite entries"),
    ([[1.0, 0.0, 0.0, 0.0]], "G must have shape (2, 4), got (1, 4)"),
], ids=["object", "null-entry", "shape"])
def test_a_dictionary_file_with_a_bad_g_fails_cleanly(tmp_path, capsys, method, g, shown):
    # An object ended in a TypeError; a null entry made a qendy fit report a
    # nan recovery error, and SINDy and gEDMD fits exit 0.
    _generate(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_read_json(tmp_path / "dictionary.json"), "G": g}))
    capsys.readouterr()
    rc = main(["fit", "--method", method, "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(path), "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == f"qendy: error in fit: {shown}\n"
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("method", ["sindy", "gedmd"])
def test_a_dictionary_g_is_refused_by_a_method_that_does_not_read_it(tmp_path, capsys,
                                                                      method):
    # The fit exited 0 and wrote a model without G, which simulate refused.
    _generate(tmp_path)
    path = tmp_path / "gdict.json"
    path.write_text(json.dumps({"state_dim": 2,
                                "basis": ["x1 + x2", "x2", "sin(x1)", "cos(x1)"],
                                "G": [[1, -1, 0, 0], [0, 1, 0, 0]]}))
    capsys.readouterr()
    rc = main(["fit", "--method", method, "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(path), "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in fit: the dictionary's 'G' is not read by method {method!r}\n")
    assert not (tmp_path / "fit").exists()


def test_a_dictionary_g_is_refused_by_convergence(tmp_path, capsys):
    # The study ran on the basis alone and exited 0.
    path = tmp_path / "gdict.json"
    path.write_text(json.dumps({"state_dim": 2,
                                "basis": ["x1 + x2", "x2", "sin(x1)", "cos(x1)"],
                                "G": [[1, -1, 0, 0], [0, 1, 0, 0]]}))
    rc = main(["convergence", "--dictionary", str(path), "--runs", "2",
               "--out", str(tmp_path / "study")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in convergence: the dictionary's 'G' is not read by convergence\n")
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("command", ["fit", "simulate", "report"])
def test_seed_is_not_an_option_of(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_fit_overflow_fails_cleanly(tmp_path, capsys):
    training = tmp_path / "training.csv"
    training.write_text("x1,dx1\n0.5,1.0\n1e200,1.0\n")
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1"]}))
    for method in ("qendy", "sindy"):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["fit", "--method", method, "--training", str(training),
                       "--dictionary", str(dictionary), "--out", str(tmp_path / method)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("qendy: error in fit:")
        assert "non-finite" in err and "did not converge" not in err


def test_fit_with_long_dictionary_entry(tmp_path):
    powers = np.arange(1500) % 4
    text = "+".join(f"{k + 1}*x1^{p}*sin(x2)" for k, p in enumerate(powers))
    _generate(tmp_path)
    dictionary = tmp_path / "long.json"
    dictionary.write_text(json.dumps({"state_dim": 2, "basis": [text, "x1", "x2"]}))
    rc = main(["fit", "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(dictionary), "--out", str(tmp_path / "fit")])
    assert rc == 0
    assert _read_json(tmp_path / "fit" / "model.json")["dictionary"]["basis"][0] == text


@pytest.mark.parametrize("basis", [
    ["(" * 20000 + "x1" + ")" * 20000, "x2"],
    ["sin(" * 3000 + "x1" + ")" * 3000, "x1", "x2"],
    ["-" * 5000 + "x1", "x1", "x2"],
], ids=["parentheses", "calls", "signs"])
def test_fit_and_report_with_deeply_nested_dictionary_entry(tmp_path, basis):
    # Each ended in a RecursionError traceback.
    _generate(tmp_path)
    dictionary = tmp_path / "deep.json"
    dictionary.write_text(json.dumps({"state_dim": 2, "basis": basis}))
    assert main(["fit", "--training", str(tmp_path / "training.csv"),
                 "--dictionary", str(dictionary), "--out", str(tmp_path / "fit")]) == 0
    assert main(["report", "--model", str(tmp_path / "fit" / "model.json"),
                 "--out", str(tmp_path / "report")]) == 0


def test_a_dictionary_entry_with_an_infinite_constant_renders(tmp_path, capsys):
    # Rendering 1e999 took int() of an infinity: fit ended in an OverflowError
    # traceback where it wrote the dictionary, and where an error named a pole.
    _generate(tmp_path)
    training = str(tmp_path / "training.csv")
    dictionary = tmp_path / "inf.json"
    basis = ["x1", "x2", "sin(x1)", "cos(x1) + 1/1e999"]
    dictionary.write_text(json.dumps({"state_dim": 2, "basis": basis}))
    assert main(["fit", "--training", training, "--dictionary", str(dictionary),
                 "--out", str(tmp_path / "fit")]) == 0
    model = tmp_path / "fit" / "model.json"
    assert _read_json(model)["dictionary"]["basis"][3] == "cos(x1)+1/1e999"
    assert main(["report", "--model", str(model), "--training", training,
                 "--out", str(tmp_path / "report")]) == 0
    assert main(["simulate", "--model", str(model), "--x0", "1,0", "--t-end", "1",
                 "--dt", "0.01", "--system", "pendulum",
                 "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    dictionary.write_text(json.dumps({"state_dim": 2, "basis": ["x1", "x2",
                                                                "1/(x1*(1/1e999))"]}))
    rc = main(["fit", "--training", training, "--dictionary", str(dictionary),
               "--out", str(tmp_path / "pole")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in fit: division by zero in '1/(x1/1e999)'\n")
    assert not (tmp_path / "pole").exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_diverging_or_non_finite_paths_fail_cleanly(tmp_path, capsys):
    # generate integrates the system itself; a diverging trajectory has no
    # truncated form to write.
    rc = main(["generate", "--system", "quartic", "--x0", "1e100,1e100",
               "--t-end", "1", "--m", "10", "--out", str(tmp_path / "gen")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in generate:") and "blew up at step 1" in err
    # A start state that is not finite has no finite path to keep, and each
    # path names it so; the lifted path said that it lifts to non-finite values.
    model = _fit_method(tmp_path, "qendy")
    sindy = _fit_method(tmp_path, "sindy")
    for path, extra in ((model, []), (model, ["--reembed"]), (sindy, [])):
        for x0, shown in (("nan,0", "[nan, 0.0]"), ("inf,0", "[inf, 0.0]")):
            rc = main(["simulate", "--model", str(path), "--x0", x0, *extra,
                       "--out", str(tmp_path / "sim")])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"qendy: error in simulate: start state {shown} is not finite\n")


# ---------------------------------------------------------------------------
# one regression core: gEDMD loss, dimension check, overflow reporting


def test_gedmd_loss_is_the_lifted_derivative_residual(tmp_path):
    from qendy.baselines import gedmd_from_json
    from qendy.dictionary import feature_matrix, feature_time_derivatives
    model_path = _fit_method(tmp_path, "gedmd")
    rc = main(["report", "--model", str(model_path),
               "--training", str(tmp_path / "training.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == 0
    model = gedmd_from_json(_read_json(model_path))
    ts = load_training(tmp_path / "training.csv")
    d = model.dictionary
    brute = sum(
        float(np.sum((feature_time_derivatives(d, ts.states[k:k + 1], ts.derivatives[k:k + 1])
                      - model.theta @ feature_matrix(d, ts.states[k:k + 1])) ** 2))
        for k in range(ts.m))
    for summary in (_read_json(tmp_path / "report" / "report.json"),
                    _read_json(model_path.parent / "fit_summary.json")):
        assert summary["loss"] == pytest.approx(brute, rel=1e-12, abs=1e-24)
        assert "regularized_loss" not in summary


def test_simulate_checks_system_dimension_before_integrating(tmp_path, capsys):
    d = Dictionary.from_strings(1, ["x1"])
    model = QuadraticModel(np.zeros((1, 1)), -np.eye(1), np.zeros(1), np.eye(1), d)
    path = tmp_path / "model.json"
    save_model(model, path)
    rc = main(["simulate", "--model", str(path), "--x0", "0.5",
               "--system", "quartic", "--out", str(tmp_path / "sim")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("qendy: error in simulate:")
    assert "dimension 1" in err and "'quartic' has dimension 2" in err
    assert not (tmp_path / "sim" / "simulation.csv").exists()


def test_a_blowup_of_the_reference_system_names_it(tmp_path, capsys):
    # The model of the decoupled quartic stays finite from this start over
    # t in [0, 5]; the coupled reference system blows up at step 272.
    main(["generate", "--system", "quartic", "--m", "200", "--out", str(tmp_path)])
    main(["fit", "--training", str(tmp_path / "training.csv"),
          "--dictionary", str(tmp_path / "dictionary.json"), "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["simulate", "--model", str(tmp_path / "model.json"), "--x0", "0.3,-0.2",
               "--t-end", "5", "--dt", "0.01", "--system", "quartic-coupled",
               "--out", str(tmp_path / "sim")])
    assert rc == 1
    assert capsys.readouterr().err == ("qendy: error in simulate: reference system "
                                       "'quartic-coupled': integration blew up at step 272\n")
    assert not list((tmp_path / "sim").glob("*"))


def test_generate_overflow_prints_only_the_error_line(tmp_path):
    # x2^4 overflows at the first stage; the blowup is the one message.
    proc = subprocess.run(
        [sys.executable, "-m", "qendy.cli", "generate", "--system", "quartic",
         "--x0=1e100,1e100", "--out", str(tmp_path / "gen")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qendy: error in generate:"), proc.stderr


def test_simulate_artifacts_do_not_depend_on_hash_order(tmp_path):
    # Programs are emitted as source from hash-consed instruction lists; two
    # interpreters with different string hashing must write the same bytes.
    gen, fit = tmp_path / "gen", tmp_path / "fit"
    assert main(["generate", "--system", "thomas", "--x0=1,-1,0", "--t-end", "10",
                 "--m", "1000", "--out", str(gen)]) == 0
    assert main(["fit", "--training", str(gen / "training.csv"),
                 "--dictionary", "thomas9", "--out", str(fit)]) == 0
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"sim-{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "qendy.cli", "simulate",
             "--model", str(fit / "model.json"), "--x0=0.5,-0.3,0.2",
             "--t-end", "2", "--dt", "0.01", "--system", "thomas", "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written.append([(out / name).read_bytes()
                        for name in ("simulation.csv", "simulation_summary.json")])
    assert written[0] == written[1]


@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
def test_fit_overflow_prints_only_the_error_line(tmp_path, method):
    training = tmp_path / "training.csv"
    training.write_text("x1,dx1\n0.5,1.0\n1e200,1.0\n")
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1"]}))
    proc = subprocess.run(
        [sys.executable, "-m", "qendy.cli", "fit", "--method", method,
         "--training", str(training), "--dictionary", str(dictionary),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qendy: error in fit:"), proc.stderr


# ---------------------------------------------------------------------------
# step counts and the training lift


@pytest.mark.parametrize("method", ["qendy", "sindy"])
@pytest.mark.parametrize("flags, message", [
    (["--t-end", "inf"], "t_end must be finite, got inf"),
    (["--dt", "nan"], "dt must be finite, got nan"),
    (["--t-end", "1e300", "--dt", "1e-300"],
     "t_end=1e+300 over dt=1e-300 is not a finite step count"),
], ids=["t_end-inf", "dt-nan", "ratio-overflows"])
def test_simulate_rejects_times_without_a_step_count(tmp_path, capsys, method, flags,
                                                     message):
    # A qendy model steps in model.simulate, a SINDy model in rk4_integrate.
    model = _fit_method(tmp_path, method)
    capsys.readouterr()
    rc = main(["simulate", "--model", str(model), "--x0", "1,0", "--system", "pendulum",
               *flags, "--out", str(tmp_path / "sim")])
    assert rc == 1
    assert capsys.readouterr().err == f"qendy: error in simulate: {message}\n"
    assert not (tmp_path / "sim" / "simulation.csv").exists()


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_generate_rejects_a_non_finite_t_end(tmp_path, capsys, t_end):
    rc = main(["generate", "--system", "pendulum", "--x0", "1,0", "--t-end", t_end,
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in generate: t_end must be finite, got {t_end}\n")
    assert not (tmp_path / "training.csv").exists()


def test_generate_rejects_zero_samples(tmp_path, capsys):
    rc = main(["generate", "--system", "pendulum", "--m", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qendy: error in generate: num_samples must be >= 1, got 0\n")
    assert not (tmp_path / "training.csv").exists()


@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
@pytest.mark.parametrize("config, shown", [
    ('{"rcond": "nan"}', "nan"), ('{"rcond": 1e400}', "inf"),
    ('{"rcond": 1.0}', "1.0"), ('{"rcond": -1e-12}', "-1e-12"),
], ids=["nan", "overflows", "one", "negative"])
def test_fit_rejects_an_rcond_outside_the_unit_interval(tmp_path, capsys, method,
                                                        config, shown):
    # Such an rcond kept no eigenvalue (an all-zero model) or every one.
    _generate(tmp_path)
    (tmp_path / "config.json").write_text(config)
    capsys.readouterr()
    rc = main(["fit", "--method", method, "--config", str(tmp_path / "config.json"),
               "--training", str(tmp_path / "training.csv"),
               "--dictionary", str(tmp_path / "dictionary.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qendy: error in fit: rcond must be a finite number in [0, 1), got {shown}\n")
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("argv, shown", [
    (["fit", "--lambda", "nan"], "lambda must be a finite number >= 0, got nan"),
    (["fit", "--lambda", "inf"], "lambda must be a finite number >= 0, got inf"),
    (["fit", "--lambda=-1"], "lambda must be a finite number >= 0, got -1.0"),
    (["fit", "--method", "sindy", "--threshold", "nan"],
     "threshold must be a finite number >= 0, got nan"),
    (["fit", "--method", "sindy", "--threshold", "inf"],
     "threshold must be a finite number >= 0, got inf"),
    (["fit", "--method", "sindy", "--threshold=-1"],
     "threshold must be a finite number >= 0, got -1.0"),
    (["reduce", "--config", '{"lambda": "nan", "samples": 40, "lift_dim": 5}'],
     "lambda must be a finite number >= 0, got nan"),
], ids=["lambda-nan", "lambda-inf", "lambda-negative", "threshold-nan",
        "threshold-inf", "threshold-negative", "reduce-lambda-nan"])
def test_a_lambda_or_threshold_that_is_not_finite_and_non_negative_is_rejected(
        tmp_path, capsys, argv, shown):
    # A nan lambda ran the whole fit and failed writing its loss; an infinite
    # one was blamed on the data; a nan or negative threshold was ignored.
    command, *argv = argv
    if command == "fit":
        _generate(tmp_path)
        argv += ["--training", str(tmp_path / "training.csv"),
                 "--dictionary", str(tmp_path / "dictionary.json")]
    else:
        (tmp_path / "config.json").write_text(argv[1])
        argv[1] = str(tmp_path / "config.json")
    capsys.readouterr()
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"qendy: error in {command}: {shown}\n"
    # Nothing is written, not even reduce's snapshots.csv.
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("method, lifts", [("qendy", 1), ("gedmd", 1), ("sindy", 0)])
def test_fit_lifts_the_training_set_once(tmp_path, monkeypatch, method, lifts):
    from qendy import baselines, cli, fitting
    from qendy.dictionary import load_dictionary
    chunked, valued = fitting.lifted_chunks, fitting.value_chunks
    calls, value_calls = [], []
    # Every lift goes through fitting.lifted_chunks, or for SINDy through its
    # values-only twin fitting.value_chunks.  Each method streams the training
    # set through its pass once for the fit and once more for the loss;
    # nothing holds a whole lift.
    for module in (fitting, baselines, cli):
        monkeypatch.setattr(module, "lifted_chunks",
                            lambda *args: calls.append(args) or chunked(*args))
        monkeypatch.setattr(module, "value_chunks",
                            lambda *args: value_calls.append(args) or valued(*args))

    def whole_lift(*args):
        raise AssertionError("build_data_matrices called")

    monkeypatch.setattr(fitting, "build_data_matrices", whole_lift)
    model_path = _fit_method(tmp_path, method)
    assert (len(calls), len(value_calls)) == (2 * lifts, 2 * (1 - lifts))
    if method != "qendy":
        return
    # The summary's loss is that of a fit and a loss on separate lifts.
    d, _ = load_dictionary(tmp_path / "dictionary.json")
    ts = load_training(tmp_path / "training.csv")
    residual, regularized = fitting.loss(fitting.fit(d, ts), chunked(d, ts), 0.0)
    summary = _read_json(model_path.parent / "fit_summary.json")
    assert (summary["loss"], summary["regularized_loss"]) == (residual, regularized)


@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
def test_fit_peak_memory_does_not_grow_with_the_sample_count(tmp_path, monkeypatch,
                                                             method):
    # The training set is built before tracing starts, so the CSV reader and
    # the data itself are not measured: only the fit and its loss are.
    from qendy import cli
    peaks = []
    for m in (20_000, 200_000):
        ts = exact_derivatives(thomas(0.25, 0.15),
                               sample_uniform([(-5.0, 5.0)] * 3, m, seed=1))
        monkeypatch.setattr(cli, "load_training", lambda path: ts)
        tracemalloc.start()
        try:
            rc = main(["fit", "--method", method, "--training", "prebuilt",
                       "--dictionary", "thomas15", "--out", str(tmp_path / str(m))])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc == 0
    assert peaks[1] <= 1.1 * peaks[0], peaks


# ---------------------------------------------------------------------------
# an overflowing lift in the checked passes


_EXP_LIFT = "basis entry 1 (exp(x1)) has a non-finite lifted value (inf) at sample 1"


@pytest.mark.parametrize("command, method", [
    ("fit", "qendy"), ("fit", "sindy"), ("fit", "gedmd"),
    ("report", "qendy"), ("report", "sindy"), ("report", "gedmd"),
    ("simulate", "qendy"),
])
def test_an_overflowing_lift_prints_only_the_error_line(tmp_path, command, method):
    # Models fitted on small x1 with the dictionary [x1, exp(x1)]; sample 1 of
    # the training file and the start state lift exp(800), which overflows.
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1", "exp(x1)"]}))
    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    small.write_text("x1,dx1\n0.1,-0.1\n0.2,-0.2\n0.3,-0.3\n0.4,-0.4\n")
    big.write_text("x1,dx1\n0.5,-0.5\n800.0,-800.0\n")
    assert main(["fit", "--method", method, "--training", str(small),
                 "--dictionary", str(dictionary), "--out", str(tmp_path / "fit")]) == 0
    model = str(tmp_path / "fit" / "model.json")
    argv, message = {
        "fit": (["--method", method, "--training", str(big),
                 "--dictionary", str(dictionary)], _EXP_LIFT),
        "report": (["--model", model, "--training", str(big)], _EXP_LIFT),
        "simulate": (["--model", model, "--x0", "800"],
                     "start state lifts to non-finite values"),
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "qendy.cli", command, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, f"qendy: error in {command}: {message}\n")
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
def test_an_overflowing_loss_names_the_training_file(tmp_path, command, method):
    # Models fitted on small x1 with the dictionary [x1].  The residuals of the
    # fit's file (derivatives of +-1e200) and of the report's file (a row at
    # x1 = 1e200) are finite, but their squares overflow.  A fresh process
    # shows any warning, which is printed only once per line in a process.
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1"]}))
    small, training = tmp_path / "small.csv", tmp_path / "training.csv"
    small.write_text("x1,dx1\n0.1,-0.1\n0.2,-0.2\n0.3,-0.3\n0.4,-0.4\n")
    assert main(["fit", "--method", method, "--training", str(small),
                 "--dictionary", str(dictionary), "--out", str(tmp_path / "fit")]) == 0
    if command == "fit":
        training.write_text("x1,dx1\n0.1,1e200\n0.2,-1e200\n0.3,1e200\n0.4,-1e200\n")
        argv = ["--method", method, "--dictionary", str(dictionary)]
    else:
        training.write_text("x1,dx1\n0.5,-0.5\n1e200,1e200\n")
        argv = ["--model", str(tmp_path / "fit" / "model.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "qendy.cli", command, *argv, "--training", str(training),
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        1, f"qendy: error in {command}: the training loss of {training} is not finite\n")
    assert not list((tmp_path / "out").glob("*"))


# ---------------------------------------------------------------------------
# the settings table: one declaration per setting


# Each command's flags (with their argparse type, or the action of a switch),
# choices, config defaults and required keys, pinned so that the settings
# table in qendy.cli can neither add, drop nor change a setting unnoticed.
_SETTINGS = {
    "generate": (
        {"--seed": int, "--out": None, "--system": None, "--m": int, "--t-end": float,
         "--x0": None, "--derivatives": None},
        {"--derivatives": ["exact", "finite-difference"]},
        {"system": None, "params": {}, "x0": None, "t_end": 10.0, "m": 100,
         "substeps": 10, "box": None, "derivatives": "exact", "seed": 0, "out": None},
        ["system"]),
    "fit": (
        {"--out": None, "--method": None, "--training": None, "--dictionary": None,
         "--lambda": float, "--force-c-zero": "store_true", "--threshold": float},
        {"--method": ["qendy", "sindy", "gedmd"]},
        {"method": "qendy", "training": None, "dictionary": None, "lambda": 0.0,
         "force_c_zero": False, "threshold": 0.0, "rcond": None, "out": None},
        ["training", "dictionary"]),
    "simulate": (
        {"--out": None, "--model": None, "--x0": None, "--t-end": float, "--dt": float,
         "--system": None, "--reembed": "store_true"},
        {},
        {"model": None, "x0": None, "t_end": 10.0, "dt": 1e-3, "reembed": False,
         "system": None, "params": {}, "out": None},
        ["model", "x0"]),
    "convergence": (
        {"--seed": int, "--out": None, "--system": None, "--dictionary": None,
         "--runs": int},
        {},
        {"system": "pendulum", "params": {}, "dictionary": None, "box": None,
         "m_list": [100, 1000, 10000], "runs": 10, "seed": 0, "order": 20,
         "relative": False, "workers": 1, "out": None},
        []),
    "reduce": (
        {"--seed": int, "--out": None, "--data": None, "--k": int,
         "--train-fraction": float, "--dt": float},
        {},
        {"data": None, "samples": 500, "lift_dim": 100, "noise": 1e-3, "seed": 0,
         "k": 3, "train_fraction": 0.8, "dt": 0.1, "lambda": 0.0, "out": None},
        []),
    "report": (
        {"--out": None, "--model": None, "--training": None},
        {},
        {"model": None, "training": None, "out": None},
        ["model"]),
}


def _subparsers():
    import argparse
    from qendy import cli
    parser = cli._build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(_SETTINGS))
def test_each_command_keeps_its_settings(command):
    from qendy import cli
    flags, choices, defaults, required = _SETTINGS[command]
    options = {opt: action for action in _subparsers()[command]._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert options.pop("--help").help and options.pop("--config").help
    switch = {opt: "store_true" for opt, a in options.items() if a.nargs == 0}
    assert {opt: switch.get(opt, a.type) for opt, a in options.items()} == flags
    assert {opt: a.choices for opt, a in options.items() if a.choices} == choices
    # Every flag sets the config key of its name.
    assert all(a.dest == opt[2:].replace("-", "_") for opt, a in options.items())
    given = {key: [1.0] if key == "x0" else "given" for key in required}
    assert cli._merge_config(command, {}, given) == {**defaults, **given}
    for key in required:
        with pytest.raises(cli._CliError, match=f"'{command}' needs '{key}'"):
            cli._merge_config(command, {}, {k: v for k, v in given.items() if k != key})


@pytest.mark.parametrize("command", sorted(_SETTINGS))
def test_each_setting_checks_its_config_value(command):
    # Every setting has a reader, which takes its default as it is.
    from qendy import cli
    for key, s in cli._SETTINGS[command].items():
        default = s.default if isinstance(s, cli._Flag) else s
        reader = cli._READERS[key]
        assert default is None or reader.read(key, default) == default, key
        with pytest.raises(ValueError, match=f"^{key} must be "):
            reader.read(key, {"a": "1"} if key == "params" else [[]])


@pytest.mark.parametrize("via", ["flag", "config", "both"])
@pytest.mark.parametrize("command, flag, key, value, other, artifact, field, want", [
    ("fit", ["--lambda", "0.5"], "lambda", 0.5, 0.25, "model.json", "lambda", 0.5),
    ("fit", ["--force-c-zero"], "force_c_zero", True, False, "model.json",
     "force_c_zero", True),
    ("simulate", ["--t-end", "0.5"], "t_end", 0.5, 0.25, "simulation_summary.json",
     "t_end", 0.5),
    ("reduce", ["--train-fraction", "0.6"], "train_fraction", 0.6, 0.9,
     "reduction_report.json", "n_train", 120),
], ids=["lambda", "force_c_zero", "t_end", "train_fraction"])
def test_a_flag_and_its_config_key_are_one_setting(tmp_path, via, command, flag, key,
                                                   value, other, artifact, field, want):
    # The flag, the config key or both (the flag wins) set the same value.
    config = {"samples": 200, "lift_dim": 20} if command == "reduce" else {}
    argv = [command]
    if command == "fit":
        _generate(tmp_path)
        argv += ["--training", str(tmp_path / "training.csv"), "--dictionary", "pendulum"]
    elif command == "simulate":
        argv += ["--model", str(_fit_pendulum(tmp_path)), "--x0", "1,0", "--dt", "0.05"]
    if via != "flag":
        config[key] = value if via == "config" else other
    if via != "config":
        argv += flag
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    assert _read_json(out / artifact)[field] == want


# ---------------------------------------------------------------------------
# a number given as JSON text


def _text_number_case(tmp_path, case):
    """(argv, error line) of a run whose input holds a number as JSON text."""
    config = tmp_path / "config.json"
    if case == "generate-m":
        config.write_text(json.dumps({"m": "50"}))
        return (["generate", "--system", "pendulum", "--config", str(config)],
                "qendy: error in config: 'm' must be an integer, got \"50\"")
    _generate(tmp_path)
    if case == "fit-lambda":
        config.write_text(json.dumps({"lambda": "1e-3"}))
        return (["fit", "--training", str(tmp_path / "training.csv"),
                 "--dictionary", "pendulum", "--config", str(config)],
                "qendy: error in config: 'lambda' must be a number, got \"1e-3\"")
    if case == "dictionary-state_dim":
        dictionary = tmp_path / "text.json"
        dictionary.write_text(json.dumps({"state_dim": "2", "basis": ["x1", "x2"]}))
        return (["fit", "--training", str(tmp_path / "training.csv"),
                 "--dictionary", str(dictionary)],
                "qendy: error in fit: dictionary state_dim must be an integer, got \"2\"")
    path = _fit_method(tmp_path, "qendy")
    obj = _read_json(path)
    obj["m"] = "3"
    path.write_text(json.dumps(obj))
    return (["report", "--model", str(path)],
            "qendy: error in report: m must be an integer >= 0, got \"3\"")


@pytest.mark.parametrize("case", ["generate-m", "fit-lambda", "dictionary-state_dim",
                                  "model-m"])
def test_a_number_given_as_text_is_refused(tmp_path, capsys, case):
    # Each was read with int() or float(), ran and exited 0.
    argv, line = _text_number_case(tmp_path, case)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# a start state whose lift is not finite


@pytest.mark.parametrize("reembed", [False, True], ids=["plain", "reembed"])
@pytest.mark.parametrize("method", ["qendy", "sindy", "gedmd"])
def test_a_start_state_whose_lift_overflows_is_refused_on_every_path(tmp_path, capsys,
                                                                     method, reembed):
    # exp(800) overflows.  The state-field path wrote the start row with
    # blowup_step 1 and exited 0; now every kind and path refuses it.  A
    # SINDy or gEDMD model steps its field either way, so --reembed, which
    # it ignored, is refused before the start state is lifted.
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"state_dim": 1, "basis": ["x1", "exp(x1)"]}))
    training = tmp_path / "training.csv"
    training.write_text("x1,dx1\n0.1,-0.1\n0.2,-0.2\n0.3,-0.3\n0.4,-0.4\n")
    model = tmp_path / "fit" / "model.json"
    assert main(["fit", "--method", method, "--training", str(training),
                 "--dictionary", str(dictionary), "--out", str(model.parent)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["simulate", "--model", str(model), "--x0", "800", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--reembed"] * reembed) == 1
    shown = (f"'reembed' is not read by a {method} model" if reembed and method != "qendy"
             else "start state lifts to non-finite values")
    assert capsys.readouterr().err == f"qendy: error in simulate: {shown}\n"
    assert not out.exists()
