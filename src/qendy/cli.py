"""Command-line front end.

Every subcommand reads an optional JSON or TOML config file plus flag
overrides (flags win), writes its outputs as CSV/JSON files into --out, and
is deterministic: rerunning the same configuration reproduces the files byte
for byte.  ``_SETTINGS`` declares each command's settings once, for the
parser, the defaults and the required keys, and ``_CHECKS`` what each config
value must be, so that a value of the wrong JSON type ends in one line, not a
traceback.  Each ``cmd_*`` returns the paths it wrote for :func:`main` to
print.  The ``workers`` key of ``convergence`` (default 1) sets the worker
threads of its Monte Carlo runs; everything else is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import baselines, reduction
from .approx import convergence_study
from .dictionary import (
    ConfigurationError, _whole, feature_map, load_dictionary, save_dictionary, write_json,
)
from .dynamics import (
    IntegrationBlowupError, _load_rows, exact_derivatives, finite_diff_derivatives,
    load_training, rk4_integrate, sample_trajectory, sample_uniform,
    save_training, save_trajectory, write_rows,
)
from .fitting import fit, lifted_chunks, loss, value_chunks
from .model import (
    hurwitz_margin, model_from_json, model_to_json, save_model, simulate, sparsity_report,
)
from .systems import companion_dictionary, make_dictionary, make_system

__all__ = ["main"]


class _CliError(RuntimeError):
    pass


def _load_json_object(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise _CliError(f"{path} does not hold a JSON object")
    return obj


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
    return _load_json_object(path)


def _merge_config(command, config, overrides):
    """The command's settings: table defaults, then config, then set flags."""
    table = _SETTINGS[command]
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise _CliError(
            f"unknown config keys for '{command}': {', '.join(unknown)}")
    merged = {key: s.default if isinstance(s, _Flag) else s for key, s in table.items()}
    merged.update(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, s in table.items():
        s = s if isinstance(s, _Flag) else _Flag(s, False, {})
        value = merged[key]
        if value is None and s.required:
            raise _CliError(f"'{command}' needs {key!r} (flag or config)")
        if value is None and s.default is None:
            continue  # unset
        choices = s.kwargs.get("choices")
        test, what = ((lambda v: v in choices, f"one of {', '.join(choices)}") if choices
                      else _CHECKS.get(key, (None, None)))
        if test is not None and not test(value):
            raise _CliError(f"{key!r} must be {what}, got {json.dumps(value, default=str)}")
    return merged


def _vector(value):
    """A state given as comma-separated text (flag) or a list (config)."""
    if isinstance(value, str):
        value = value.split(",")
    return np.asarray([float(v) for v in value])


def _system(cfg):
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise _CliError(f"params must map parameter names to values, got {params!r}")
    return make_system(cfg["system"], **params)


def _resolve_dictionary(ref, state_dim):
    """A dictionary argument is either a JSON file path or a builtin name;
    the builtin ``identity`` takes the state dimension ``state_dim``."""
    if os.path.exists(ref):
        return load_dictionary(ref)
    if ref == "identity":
        return make_dictionary("identity", n=state_dim), None
    return make_dictionary(ref), None


def _box(cfg, system):
    """The config's box, one [lo, hi] pair per coordinate of ``system``, or
    [-1, 1] in each coordinate if the config sets none."""
    box = cfg.get("box")
    if box is None:
        return [(-1.0, 1.0)] * system.n
    if len(box) != system.n:
        raise _CliError(f"'box' must hold one [lo, hi] pair per coordinate of system "
                        f"{cfg['system']!r}, which has dimension {system.n}, got {len(box)}")
    return box


def _outdir(cfg):
    out = cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


# Each kind of model, which is also a fit method: the coefficient key that
# marks its model file, the file's reader and its writer.
_KINDS = {
    "qendy": ("A", model_from_json, model_to_json),
    "sindy": ("Xi", baselines.sindy_from_json, baselines.sindy_to_json),
    "gedmd": ("Theta", baselines.gedmd_from_json, baselines.gedmd_to_json),
}


def _load_model_file(path):
    """(kind, model) of a model JSON file."""
    obj = _load_json_object(path)
    for kind, (key, from_json, _) in _KINDS.items():
        if key in obj:
            try:
                return kind, from_json(obj)
            except KeyError as missing:
                raise _CliError(f"model file {path} lacks key {missing}") from None
    raise _CliError("model file has none of the keys "
                    + ", ".join(key for key, _, _ in _KINDS.values()))


def _loss_fields(kind, model, ts, path):
    """Training loss of a fitted model on the training file ``path``, as
    summary fields, summed over the chunks of ``ts``; SINDy and gEDMD sum
    ||t - W z||^2 over theirs.  A loss that overflows raises ValueError
    and is not warned as well."""
    d = model.dictionary
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "qendy":
            residual, regularized = loss(model, lifted_chunks(d, ts),
                                         model.metadata["lambda"])
            fields = {"loss": residual, "regularized_loss": regularized}
        else:
            w, chunks = ((model.xi, value_chunks(d, ts)) if kind == "sindy"
                         else (model.theta, lifted_chunks(d, ts)))
            fields = {"loss": sum((float(np.sum((t - w @ z) ** 2))
                                   for _, z, t in chunks), 0.0)}
    if not all(map(math.isfinite, fields.values())):
        raise ValueError(f"the training loss of {path} is not finite")
    return fields


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg):
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
    elif cfg["derivatives"] == "finite-difference":
        raise _CliError("finite-difference derivatives need a trajectory: give x0")
    else:
        points = sample_uniform(_box(cfg, system), int(cfg["m"]), int(cfg["seed"]))
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
    return wrote


def cmd_fit(cfg):
    ts = load_training(cfg["training"])
    d, g_override = _resolve_dictionary(cfg["dictionary"], ts.n)
    out = _outdir(cfg)
    model_path = os.path.join(out, "model.json")
    method = cfg["method"]
    if method == "qendy":
        model = fit(d, ts, lam=float(cfg["lambda"]),
                    force_c_zero=bool(cfg["force_c_zero"]),
                    rcond=cfg.get("rcond"), g=g_override)
    elif method == "sindy":
        model = baselines.sindy_fit(d, ts, threshold=float(cfg["threshold"]),
                                    rcond=cfg.get("rcond"))
    else:
        model = baselines.gedmd_fit(d, ts, rcond=cfg.get("rcond"))
    summary = {"method": method, "m": int(ts.m),
               **_loss_fields(method, model, ts, cfg["training"])}
    write_json(model_path, _KINDS[method][2](model))
    summary_path = os.path.join(out, "fit_summary.json")
    write_json(summary_path, summary)
    return [model_path, summary_path]


def _simulate_model(kind, model, x0, t_end, dt, reembed):
    """Returns (times, states (m, n), blowup step or None): the lifted path
    of a qendy model projected by G, or, with ``reembed`` and for SINDy and
    gEDMD models, the path of the model's state-space field.

    After a blowup the path ends at the last finite state.  A finite start
    state whose lift is not finite is refused on every path.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        start = feature_map(model.dictionary, x0)
    if np.isfinite(x0).all() and not np.isfinite(start).all():
        raise ValueError("start state lifts to non-finite values")
    lifted = kind == "qendy" and not reembed
    try:
        path = (simulate(model, x0, t_end, dt) if lifted
                else rk4_integrate(baselines.state_field(model), x0, t_end, dt))
        blowup = None
    except IntegrationBlowupError as err:
        path, blowup = err.partial, err.step
    return path.times, path.x_states if lifted else path.states, blowup


def cmd_simulate(cfg):
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
        try:
            reference = rk4_integrate(system, x0, t_end, dt)
        except IntegrationBlowupError as err:
            raise _CliError(f"reference system {cfg['system']!r}: {err}") from None
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
    return [csv_path, summary_path]


def cmd_convergence(cfg):
    system = _system(cfg)
    if cfg.get("dictionary") is not None:
        d, _ = _resolve_dictionary(cfg["dictionary"], system.n)
    else:
        d = companion_dictionary(cfg["system"])
    study = convergence_study(
        d, system, _box(cfg, system), cfg["m_list"], int(cfg["runs"]), seed=int(cfg["seed"]),
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
    return [runs_path, agg_path, summary_path]


def cmd_reduce(cfg):
    out = _outdir(cfg)
    synthetic = cfg.get("data") is None
    if synthetic:
        snapshots, _ = reduction.synthetic_lift_data(
            num_samples=int(cfg["samples"]), lift_dim=int(cfg["lift_dim"]),
            dt=float(cfg["dt"]), noise=float(cfg["noise"]),
            seed=int(cfg["seed"]))
    else:
        snapshots = _load_rows(cfg["data"], header=False)
    result = reduction.reduced_identification_pipeline(
        snapshots, int(cfg["k"]), float(cfg["train_fraction"]),
        float(cfg["dt"]), lam=float(cfg["lambda"]))
    # Written only once the pipeline has succeeded, so a failed reduce
    # leaves nothing behind.
    wrote = []
    if synthetic:
        snap_path = os.path.join(out, "snapshots.csv")
        write_rows(snap_path, None, snapshots)
        wrote.append(snap_path)
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
    gap = result.spectral_gap
    write_json(report_path, {
        "k": k,
        "n_train": result.n_train,
        "train_rel_rms": result.train_rel_rms,
        "forecast_rel_rms": result.forecast_rel_rms,
        # inf when k covers the whole spectrum, which JSON cannot hold.
        "spectral_gap": None if math.isinf(gap) else gap,
        "singular_values": result.singular_spectrum[:min(
            10, result.singular_spectrum.size)].tolist(),
    })
    return wrote + [pca_path, model_path, forecast_path, report_path]


def cmd_report(cfg):
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
        summary.update(_loss_fields(kind, model, load_training(cfg["training"]),
                                    cfg["training"]))
    coeff_path = os.path.join(out, "coefficients.csv")
    write_rows(coeff_path, "matrix,row,col,value",
               [(name, r, c, float(v)) for name, matrix in matrices
                for (r, c), v in np.ndenumerate(matrix)])
    report_path = os.path.join(out, "report.json")
    write_json(report_path, summary)
    return [coeff_path, report_path]


# ---------------------------------------------------------------------------
# argument plumbing


class _Flag(NamedTuple):
    """A setting that is also the flag ``--<key>`` (underscores as dashes),
    made with the argparse keywords ``kwargs``; a ``required`` setting must
    be given by flag or config."""
    default: object
    required: bool
    kwargs: dict


def _flag(default=None, required=False, **kwargs):
    return _Flag(default, required, kwargs)


_SEED, _OUT = _flag(0, type=int), _flag(help="output directory (default: .)")

# Every setting of each command, declared once by its config key: a _Flag, or
# a plain default for a config-only key.  The parser, the defaults and the
# required-key check all read this table.
_SETTINGS = {
    "generate": {
        "system": _flag(required=True), "params": {},
        "x0": _flag(help="comma-separated start state (trajectory mode)"),
        "t_end": _flag(10.0, type=float),
        "m": _flag(100, type=int, help="number of samples"), "substeps": 10, "box": None,
        "derivatives": _flag("exact", choices=["exact", "finite-difference"]),
        "seed": _SEED, "out": _OUT,
    },
    "fit": {
        "method": _flag("qendy", choices=list(_KINDS)),
        "training": _flag(required=True),
        "dictionary": _flag(required=True, help="dictionary JSON path or builtin name"),
        "lambda": _flag(0.0, type=float), "force_c_zero": _flag(False, action="store_true"),
        "threshold": _flag(0.0, type=float), "rcond": None, "out": _OUT,
    },
    "simulate": {
        "model": _flag(required=True),
        "x0": _flag(required=True, help="comma-separated start state"),
        "t_end": _flag(10.0, type=float), "dt": _flag(1e-3, type=float),
        "reembed": _flag(False, action="store_true", help="step a qendy model's "
                         "state-space field G dz(phi(x)), not its lifted state"),
        "system": _flag(help="reference system for error columns"), "params": {},
        "out": _OUT,
    },
    "convergence": {
        "system": _flag("pendulum"), "params": {}, "dictionary": _flag(), "box": None,
        "m_list": [100, 1000, 10000], "runs": _flag(10, type=int), "seed": _SEED,
        "order": 20, "relative": False, "workers": 1, "out": _OUT,
    },
    "reduce": {
        "data": _flag(help="headerless snapshot CSV (default: synthetic)"),
        "samples": 500, "lift_dim": 100, "noise": 1e-3, "seed": _SEED,
        "k": _flag(3, type=int), "train_fraction": _flag(0.8, type=float),
        "dt": _flag(0.1, type=float), "lambda": 0.0, "out": _OUT,
    },
    "report": {
        "model": _flag(required=True),
        "training": _flag(help="training CSV for loss reporting"), "out": _OUT,
    },
}


def _reads(convert):
    """A test that a config value is not JSON true or false and that
    ``convert``, the function its command reads it with, takes it.  Text is
    taken only for the numbers JSON cannot write, such as ``"nan"`` and
    ``"inf"``: ``"50"`` or ``"1e-3"`` is refused."""
    def test(value):
        if isinstance(value, bool):
            return False
        try:
            number = convert(value)
        except (TypeError, ValueError, OverflowError):
            return False
        return not (isinstance(value, str) and np.isfinite(number))
    return test


_FLOAT, _INT = _reads(float), _reads(_whole)


def _all(test, length=None):
    """A test that a config value is a list, of ``length`` items if given,
    each of which passes ``test``."""
    return lambda v: (isinstance(v, list) and length in (None, len(v))
                      and all(map(test, v)))


# What each config value must be, as (test, description), by key; ``params``
# is checked where it is read, and a setting with choices must be one of them.
# A null is only accepted for a setting whose default is null, and means unset.
_CHECKS = {
    **dict.fromkeys(("t_end", "lambda", "threshold", "rcond", "dt", "noise",
                     "train_fraction"), (_FLOAT, "a number")),
    **dict.fromkeys(("m", "substeps", "seed", "runs", "order", "workers", "samples",
                     "lift_dim", "k"), (_INT, "an integer")),
    **dict.fromkeys(("force_c_zero", "reembed", "relative"),
                    (lambda v: isinstance(v, bool), "true or false")),
    **dict.fromkeys(("system", "dictionary", "training", "model", "data", "out"),
                    (lambda v: isinstance(v, str), "a string")),
    "x0": (lambda v: (all(f.strip() for f in v.split(",")) if isinstance(v, str)
                      else _all(_FLOAT)(v)),
           "a list of numbers or comma-separated text"),
    "m_list": (_all(_INT), "a list of integers"),
    "box": (_all(_all(_FLOAT, 2)), "a list of [lo, hi] pairs"),
}

_COMMANDS = {
    "generate": (cmd_generate, "sample training data from a benchmark system"),
    "fit": (cmd_fit, "fit a model to a training CSV"),
    "simulate": (cmd_simulate, "integrate a fitted model"),
    "convergence": (cmd_convergence, "Monte Carlo limit-convergence study"),
    "reduce": (cmd_reduce, "PCA reduction and reduced-order fit"),
    "report": (cmd_report, "tidy coefficient tables for a model file"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qendy",
        description="Quadratic-embedding system identification toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON or TOML config file")
        for key, s in _SETTINGS[command].items():
            if isinstance(s, _Flag):
                p.add_argument("--" + key.replace("_", "-"), default=None, **s.kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, stage = args.command, "config"
    try:
        config = _load_config(args.config)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = _merge_config(command, config, overrides)
        stage = command
        for path in _COMMANDS[command][0](cfg):
            print(path)
        return 0
    except (_CliError, ConfigurationError, ValueError, OSError, KeyError,
            IntegrationBlowupError) as err:
        print(f"qendy: error in {stage}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
