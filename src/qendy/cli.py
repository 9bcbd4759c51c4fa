"""Command-line front end.

Every subcommand reads an optional JSON or TOML config file plus flag
overrides (flags win), writes its outputs as CSV/JSON files into --out, and
is deterministic: rerunning the same configuration reproduces the files byte
for byte.  QENDY_NUM_THREADS caps the worker count of the convergence study;
everything else is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import baselines, reduction
from .approx import convergence_study
from .dictionary import (
    ConfigurationError, feature_map, full_state_matrix, load_dictionary,
    save_dictionary, write_json,
)
from .dynamics import (
    IntegrationBlowupError, _load_rows, exact_derivatives, finite_diff_derivatives,
    load_training, rk4_integrate, sample_trajectory, sample_uniform,
    save_training, save_trajectory, write_rows,
)
from .fitting import _fit_lifted, build_data_matrices, loss
from .model import (
    hurwitz_margin, model_from_json, save_model, simulate, sparsity_report,
)
from .systems import companion_dictionary, make_dictionary, make_system

__all__ = ["main"]

_STAGE = "startup"


class _CliError(RuntimeError):
    pass


def _set_stage(name):
    global _STAGE
    _STAGE = name


def _load_config(path):
    if path is None:
        return {}
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as err:
            raise _CliError(f"TOML config needs Python >= 3.11: {err}")
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path) as fh:
        return json.load(fh)


def _merge_config(defaults, config, overrides, command):
    merged = dict(defaults)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise _CliError(
            f"unknown config keys for '{command}': {', '.join(unknown)}")
    merged.update(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _vector(value):
    """A state given as comma-separated text (flag) or a list (config)."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(",") if v != ""]
    return np.asarray(value, dtype=float)


def _system(cfg):
    return make_system(cfg["system"], **cfg.get("params", {}))


def _resolve_dictionary(ref, state_dim=None):
    """A dictionary argument is either a JSON file path or a builtin name."""
    if ref is None:
        raise _CliError("no dictionary given")
    if os.path.exists(ref):
        return load_dictionary(ref)
    if ref == "identity":
        if state_dim is None:
            raise _CliError("identity dictionary needs training data to size itself")
        return make_dictionary("identity", n=state_dim), None
    return make_dictionary(ref), None


def _outdir(cfg):
    out = cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


# The coefficient key that marks each kind of model file, and its reader.
_KINDS = {
    "A": ("qendy", model_from_json),
    "Xi": ("sindy", baselines.sindy_from_json),
    "Theta": ("gedmd", baselines.gedmd_from_json),
}


def _load_model_file(path):
    """(kind, model) of a model JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    for key, (kind, from_json) in _KINDS.items():
        if key in obj:
            return kind, from_json(obj)
    raise _CliError(f"model file has none of the keys {', '.join(_KINDS)}")


def _loss_fields(kind, model, ts, dm=None):
    """Training loss of a fitted model, as summary fields; ``dm`` is the lift
    of ``ts`` if the caller has it."""
    if kind == "sindy":
        residual = ts.derivatives - baselines.sindy_rhs_many(model, ts.states)
        return {"loss": float(np.sum(residual ** 2))}
    if dm is None:
        dm = build_data_matrices(model.dictionary, ts)
    if kind == "qendy":
        residual, regularized = loss(model, dm, model.metadata["lambda"])
        return {"loss": residual, "regularized_loss": regularized}
    return {"loss": float(np.sum((dm.zdot - model.theta @ dm.z1) ** 2))}


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg):
    _set_stage("generate")
    system = _system(cfg)
    out = _outdir(cfg)
    wrote = []
    if cfg.get("x0") is not None:
        traj = sample_trajectory(system, _vector(cfg["x0"]), float(cfg["t_end"]),
                                 int(cfg["m"]), int(cfg["substeps"]))
        if cfg["derivatives"] == "finite-difference":
            ts = finite_diff_derivatives(traj)
        else:
            ts = exact_derivatives(system, traj.states)
        traj_path = os.path.join(out, "trajectory.csv")
        save_trajectory(traj, traj_path)
        wrote.append(traj_path)
    else:
        box = cfg.get("box") or [(-1.0, 1.0)] * system.n
        points = sample_uniform(box, int(cfg["m"]), int(cfg["seed"]))
        ts = exact_derivatives(system, points)
    training_path = os.path.join(out, "training.csv")
    save_training(ts, training_path)
    wrote.append(training_path)
    dict_path = os.path.join(out, "dictionary.json")
    try:
        save_dictionary(companion_dictionary(cfg["system"]), dict_path)
        wrote.append(dict_path)
    except ValueError:
        pass
    for path in wrote:
        print(path)
    return 0


def cmd_fit(cfg):
    _set_stage("fit")
    ts = load_training(cfg["training"])
    d, g_override = _resolve_dictionary(cfg["dictionary"], state_dim=ts.n)
    out = _outdir(cfg)
    model_path = os.path.join(out, "model.json")
    method = cfg["method"]
    if method not in ("qendy", "sindy", "gedmd"):
        raise _CliError(f"unknown fit method {method!r}")
    # qendy and gEDMD fit the lifted training set; the loss reuses the lift.
    dm = None if method == "sindy" else build_data_matrices(d, ts)
    if method == "qendy":
        model = _fit_lifted(d, ts, dm.chunks(), lam=float(cfg["lambda"]),
                            force_c_zero=bool(cfg["force_c_zero"]),
                            rcond=cfg.get("rcond"), g=g_override)
        save_model(model, model_path)
    elif method == "sindy":
        model = baselines.sindy_fit(d, ts, threshold=float(cfg["threshold"]),
                                    rcond=cfg.get("rcond"))
        write_json(model_path, baselines.sindy_to_json(model))
    else:
        model = baselines._gedmd_lifted(d, dm.chunks(), rcond=cfg.get("rcond"))
        write_json(model_path, baselines.gedmd_to_json(model))
    summary = {"method": method, "m": int(ts.m), **_loss_fields(method, model, ts, dm)}
    summary_path = os.path.join(out, "fit_summary.json")
    write_json(summary_path, summary)
    print(model_path)
    print(summary_path)
    return 0


def _simulate_model(kind, model, x0, t_end, dt, reembed):
    """Returns (times, states (m, n), blowup step or None).

    After a blowup the path ends at the last finite state.
    """
    try:
        if kind == "qendy":
            path = simulate(model, x0, t_end, dt, reembed=reembed)
        elif kind == "sindy":
            path = rk4_integrate(lambda x: baselines.sindy_rhs(model, x), x0, t_end, dt)
        else:
            g_theta = full_state_matrix(model.dictionary) @ model.theta
            path = rk4_integrate(
                lambda x: g_theta @ feature_map(model.dictionary, x), x0, t_end, dt)
        blowup = None
    except IntegrationBlowupError as err:
        path, blowup = err.partial, err.step
    states = path.x_states if kind == "qendy" else path.states
    return path.times, states, blowup


def cmd_simulate(cfg):
    _set_stage("simulate")
    kind, model = _load_model_file(cfg["model"])
    system = None if cfg.get("system") is None else _system(cfg)
    if system is not None and system.n != model.dictionary.state_dim:
        raise _CliError(f"the model has state dimension {model.dictionary.state_dim}, "
                        f"but system {cfg['system']!r} has dimension {system.n}")
    x0 = _vector(cfg["x0"])
    t_end, dt = float(cfg["t_end"]), float(cfg["dt"])
    times, states, blowup = _simulate_model(kind, model, x0, t_end, dt,
                                            bool(cfg["reembed"]))
    n = states.shape[1]
    summary = {"t_end": t_end, "dt": dt,
               "blowup_step": blowup, "samples": int(times.size)}
    header = "t," + ",".join(f"x{j + 1}_model" for j in range(n))
    columns = [times] + [states[:, j] for j in range(n)]
    if system is not None:
        reference = rk4_integrate(system, x0, t_end, dt)
        ref_states = reference.states[:times.size]
        header += "," + ",".join(f"x{j + 1}_true" for j in range(n))
        columns += [ref_states[:, j] for j in range(n)]
        diff = states - ref_states
        summary["sup_error"] = float(np.abs(diff).max())
        summary["rms_error"] = float(np.sqrt(np.mean(diff ** 2)))
    flags = np.zeros(times.size)
    if blowup is not None:
        flags[-1] = 1.0
    header += ",blowup"
    columns.append(flags)
    out = _outdir(cfg)
    csv_path = os.path.join(out, "simulation.csv")
    write_rows(csv_path, header, np.column_stack(columns))
    summary_path = os.path.join(out, "simulation_summary.json")
    write_json(summary_path, summary)
    print(csv_path)
    print(summary_path)
    return 0


def cmd_convergence(cfg):
    _set_stage("convergence")
    system = _system(cfg)
    if cfg.get("dictionary") is not None:
        d, _ = _resolve_dictionary(cfg["dictionary"], state_dim=system.n)
    else:
        d = companion_dictionary(cfg["system"])
    box = cfg.get("box") or [(-1.0, 1.0)] * system.n
    study = convergence_study(
        d, system, box, cfg["m_list"], int(cfg["runs"]), seed=int(cfg["seed"]),
        order=int(cfg["order"]), relative=bool(cfg["relative"]),
        max_workers=int(cfg["workers"]))
    out = _outdir(cfg)
    runs_path = os.path.join(out, "convergence_runs.csv")
    agg_path = os.path.join(out, "convergence.csv")
    study.write_runs_csv(runs_path)
    study.write_aggregate_csv(agg_path)
    summary_path = os.path.join(out, "convergence_summary.json")
    write_json(summary_path, {"slope_R": study.slope_r,
                               "slope_s": study.slope_s,
                               "runs": study.runs,
                               "m_list": [int(m) for m in study.sample_sizes]})
    print(runs_path)
    print(agg_path)
    print(summary_path)
    return 0


def cmd_reduce(cfg):
    _set_stage("reduce")
    out = _outdir(cfg)
    printed = []
    if cfg.get("data") is not None:
        snapshots = _load_rows(cfg["data"], header=False)
    else:
        snapshots, _ = reduction.synthetic_lift_data(
            num_samples=int(cfg["samples"]), lift_dim=int(cfg["lift_dim"]),
            dt=float(cfg["dt"]), noise=float(cfg["noise"]),
            seed=int(cfg["seed"]))
        snap_path = os.path.join(out, "snapshots.csv")
        write_rows(snap_path, None, snapshots)
        printed.append(snap_path)
    result = reduction.reduced_identification_pipeline(
        snapshots, int(cfg["k"]), float(cfg["train_fraction"]),
        float(cfg["dt"]), lam=float(cfg["lambda"]))
    pca_path = os.path.join(out, "pca.json")
    write_json(pca_path, {
        "mean": result.basis.mean.tolist(),
        "components": result.basis.components.tolist(),
        "singular_values": result.basis.singular_values.tolist(),
    })
    model_path = os.path.join(out, "reduced_model.json")
    save_model(result.model, model_path)
    k = result.reduced.shape[1]
    header = ("t," + ",".join(f"r{j + 1}_true" for j in range(k)) + ","
              + ",".join(f"r{j + 1}_model" for j in range(k)))
    times = np.arange(snapshots.shape[0]) * float(cfg["dt"])
    forecast_path = os.path.join(out, "forecast.csv")
    write_rows(forecast_path, header,
               np.column_stack([times, result.reduced, result.predicted]))
    report_path = os.path.join(out, "reduction_report.json")
    write_json(report_path, {
        "k": k,
        "n_train": result.n_train,
        "train_rel_rms": result.train_rel_rms,
        "forecast_rel_rms": result.forecast_rel_rms,
        "spectral_gap": result.spectral_gap,
        "singular_values": result.singular_spectrum[:min(
            10, result.singular_spectrum.size)].tolist(),
    })
    for path in printed + [pca_path, model_path, forecast_path, report_path]:
        print(path)
    return 0


def cmd_report(cfg):
    _set_stage("report")
    kind, model = _load_model_file(cfg["model"])
    out = _outdir(cfg)
    d = model.dictionary
    summary = {"state_dim": int(d.state_dim), "kind": kind, "basis": list(d.names)}
    if kind == "qendy":
        stability = hurwitz_margin(model)
        sparsity = sparsity_report(model)
        summary["hurwitz_stable"] = bool(stability.stable)
        summary["max_real_part"] = float(stability.max_real_part)
        summary["nonzeros"] = {"A": sparsity.a_nonzeros, "B": sparsity.b_nonzeros,
                               "C": sparsity.c_nonzeros}
        summary["a_frobenius"] = sparsity.a_frobenius
        matrices = (("A", model.a), ("B", model.b), ("C", model.c[None, :]),
                    ("G", model.g))
    elif kind == "sindy":
        matrices = (("Xi", model.xi),)
    else:
        matrices = (("Theta", model.theta),)
        summary["eigenvalues"] = [[p.eigenvalue.real, p.eigenvalue.imag]
                                  for p in baselines.koopman_eigenfunctions(model)]
    if cfg.get("training") is not None:
        summary.update(_loss_fields(kind, model, load_training(cfg["training"])))
    coeff_path = os.path.join(out, "coefficients.csv")
    write_rows(coeff_path, "matrix,row,col,value",
               [(name, r, c, float(v)) for name, matrix in matrices
                for (r, c), v in np.ndenumerate(matrix)])
    report_path = os.path.join(out, "report.json")
    write_json(report_path, summary)
    print(coeff_path)
    print(report_path)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_DEFAULTS = {
    "generate": {
        "system": None, "params": {}, "x0": None, "t_end": 10.0, "m": 100,
        "substeps": 10, "box": None, "derivatives": "exact", "seed": 0,
        "out": None,
    },
    "fit": {
        "method": "qendy", "training": None, "dictionary": None,
        "lambda": 0.0, "force_c_zero": False, "threshold": 0.0,
        "rcond": None, "out": None,
    },
    "simulate": {
        "model": None, "x0": None, "t_end": 10.0, "dt": 1e-3,
        "reembed": False, "system": None, "params": {}, "out": None,
    },
    "convergence": {
        "system": "pendulum", "params": {}, "dictionary": None, "box": None,
        "m_list": [100, 1000, 10000], "runs": 10, "seed": 0, "order": 20,
        "relative": False, "workers": None, "out": None,
    },
    "reduce": {
        "data": None, "samples": 500, "lift_dim": 100, "noise": 1e-3,
        "seed": 0, "k": 3, "train_fraction": 0.8, "dt": 0.1, "lambda": 0.0,
        "out": None,
    },
    "report": {
        "model": None, "training": None, "out": None,
    },
}

_REQUIRED = {
    "generate": ("system",),
    "fit": ("training", "dictionary"),
    "simulate": ("model", "x0"),
    "convergence": (),
    "reduce": (),
    "report": ("model",),
}

_COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "convergence": cmd_convergence,
    "reduce": cmd_reduce,
    "report": cmd_report,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qendy",
        description="Quadratic-embedding system identification toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", help="JSON or TOML config file")
        if seeded:
            p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default: .)")

    p = sub.add_parser("generate", help="sample training data from a benchmark system")
    common(p, seeded=True)
    p.add_argument("--system")
    p.add_argument("--m", type=int, help="number of samples")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--x0", help="comma-separated start state (trajectory mode)")
    p.add_argument("--derivatives", choices=["exact", "finite-difference"])

    p = sub.add_parser("fit", help="fit a model to a training CSV")
    common(p)
    p.add_argument("--method", choices=["qendy", "sindy", "gedmd"])
    p.add_argument("--training")
    p.add_argument("--dictionary", help="dictionary JSON path or builtin name")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--force-c-zero", action="store_true", dest="force_c_zero",
                   default=None)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("simulate", help="integrate a fitted model")
    common(p)
    p.add_argument("--model")
    p.add_argument("--x0", help="comma-separated start state")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    p.add_argument("--system", help="reference system for error columns")
    p.add_argument("--reembed", action="store_true", default=None)

    p = sub.add_parser("convergence", help="Monte Carlo limit-convergence study")
    common(p, seeded=True)
    p.add_argument("--system")
    p.add_argument("--dictionary")
    p.add_argument("--runs", type=int)

    p = sub.add_parser("reduce", help="PCA reduction and reduced-order fit")
    common(p, seeded=True)
    p.add_argument("--data", help="headerless snapshot CSV (default: synthetic)")
    p.add_argument("--k", type=int)
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--dt", type=float)

    p = sub.add_parser("report", help="tidy coefficient tables for a model file")
    common(p)
    p.add_argument("--model")
    p.add_argument("--training", help="training CSV for loss reporting")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    _set_stage("config")
    try:
        config = _load_config(args.config)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        if "lam" in overrides:
            overrides["lambda"] = overrides.pop("lam")
        cfg = _merge_config(_DEFAULTS[command], config, overrides, command)
        for key in _REQUIRED[command]:
            if cfg.get(key) is None:
                raise _CliError(f"'{command}' needs {key!r} (flag or config)")
        if command == "convergence" and cfg.get("workers") is None:
            cfg["workers"] = int(os.environ.get("QENDY_NUM_THREADS", "1"))
        return _COMMANDS[command](cfg)
    except (_CliError, ConfigurationError, ValueError, OSError, KeyError,
            IntegrationBlowupError) as err:
        print(f"qendy: error in {_STAGE}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
