"""Command-line front end.

Every subcommand reads an optional JSON or TOML config file plus flag
overrides (flags win), writes its outputs as CSV/JSON files into --out, and
is deterministic: rerunning the same configuration reproduces the files byte
for byte.  ``_SETTINGS`` declares each command's settings once, for the
parser, the defaults and the required keys, and ``_READERS`` the kind of value
of each key, which gives a flag its type and reads every value once, at the
config stage, so that a value of the wrong kind ends in one line and each
``cmd_*`` takes typed settings.  A command returns its artifacts by file name;
:func:`main` alone creates --out, once the command has returned, writes them
and prints their paths, so a failed command writes nothing.  The ``workers``
key of ``convergence`` (default 1) sets the worker threads of its Monte Carlo
runs; everything else is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from . import baselines, reduction
from .approx import convergence_study
from .dictionary import (
    _NUMBER, _STRING, _SWITCH, _WHOLE, ConfigurationError, _given, _list_of, _number,
    _one_of, _Reader, _whole, dictionary_to_json, feature_map, load_dictionary, write_json,
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
    """The command's settings, table defaults, then config, then set flags,
    each converted by the reader of its key.  A setting that the command's
    mode does not read is refused unless it holds its default."""
    table = _SETTINGS[command]
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise _CliError(
            f"unknown config keys for '{command}': {', '.join(unknown)}")
    defaults = {key: s.default if isinstance(s, _Flag) else s for key, s in table.items()}
    merged = {**defaults, **config}
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, s in table.items():
        s = s if isinstance(s, _Flag) else _Flag(s)
        if merged[key] is None and s.required:
            raise _CliError(f"'{command}' needs {key!r} (flag or config)")
        if merged[key] is not None or s.default is not None:  # null leaves it unset
            merged[key] = _READERS[key].read(repr(key), merged[key])
    unread, mode = _unread(command, merged)
    for key in unread:
        if merged[key] != defaults[key]:
            raise _CliError(f"{key!r} is not read {mode}")
    return merged


# The fit settings that each method does not read.
_UNREAD_BY = {"qendy": ("threshold",), "sindy": ("lambda", "force_c_zero"),
              "gedmd": ("lambda", "force_c_zero", "threshold")}


def _unread(command, cfg):
    """(the settings that ``command`` does not read in the mode that ``cfg``
    picks, the words that name that mode)."""
    if command == "fit":
        return _UNREAD_BY[cfg["method"]], f"by method {cfg['method']!r}"
    if command == "generate" and cfg["x0"] is not None:
        return ("box", "seed"), "with 'x0'"
    if command == "generate":
        return ("t_end", "substeps"), "without 'x0'"
    if command == "simulate" and cfg["system"] is None:
        return ("params",), "without 'system'"
    if command == "reduce" and cfg["data"] is not None:
        return ("samples", "lift_dim", "noise", "seed"), "with 'data'"
    return (), None


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
    box = cfg["box"]
    if box is None:
        return [(-1.0, 1.0)] * system.n
    if len(box) != system.n:
        raise _CliError(f"'box' must hold one [lo, hi] pair per coordinate of system "
                        f"{cfg['system']!r}, which has dimension {system.n}, got {len(box)}")
    return box


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


def _non_finite(value):
    """The first NaN or infinity in a JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else value
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return None
    return next((bad for v in value if (bad := _non_finite(v)) is not None), None)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg):
    system = make_system(cfg["system"], **cfg["params"])
    traj = None
    if cfg["x0"] is not None:
        traj = sample_trajectory(system, cfg["x0"], cfg["t_end"], cfg["m"], cfg["substeps"])
        if cfg["derivatives"] == "finite-difference":
            ts = finite_diff_derivatives(traj)
        else:
            ts = exact_derivatives(system, traj.states)
    elif cfg["derivatives"] == "finite-difference":
        raise _CliError("finite-difference derivatives need a trajectory: give x0")
    else:
        points = sample_uniform(_box(cfg, system), cfg["m"], cfg["seed"])
        ts = exact_derivatives(system, points)
    artifacts = {} if traj is None else {"trajectory.csv": partial(save_trajectory, traj)}
    artifacts["training.csv"] = partial(save_training, ts)
    try:
        artifacts["dictionary.json"] = dictionary_to_json(companion_dictionary(cfg["system"]))
    except ValueError:
        pass
    return artifacts


def cmd_fit(cfg):
    ts = load_training(cfg["training"])
    d, g_override = _resolve_dictionary(cfg["dictionary"], ts.n)
    method = cfg["method"]
    if g_override is not None and method != "qendy":
        raise _CliError(f"the dictionary's 'G' is not read by method {method!r}")
    if method == "qendy":
        model = fit(d, ts, lam=cfg["lambda"], force_c_zero=cfg["force_c_zero"],
                    rcond=cfg["rcond"], g=g_override)
    elif method == "sindy":
        model = baselines.sindy_fit(d, ts, threshold=cfg["threshold"], rcond=cfg["rcond"])
    else:
        model = baselines.gedmd_fit(d, ts, rcond=cfg["rcond"])
    summary = {"method": method, "m": int(ts.m),
               **_loss_fields(method, model, ts, cfg["training"])}
    return {"model.json": _KINDS[method][2](model), "fit_summary.json": summary}


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
    if cfg["reembed"] and kind != "qendy":
        raise _CliError(f"'reembed' is not read by a {kind} model")
    system = None if cfg["system"] is None else make_system(cfg["system"], **cfg["params"])
    if system is not None and system.n != model.dictionary.state_dim:
        raise _CliError(f"the model has state dimension {model.dictionary.state_dim}, "
                        f"but system {cfg['system']!r} has dimension {system.n}")
    x0, t_end, dt = cfg["x0"], cfg["t_end"], cfg["dt"]
    times, states, blowup = _simulate_model(kind, model, x0, t_end, dt, cfg["reembed"])
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
        with np.errstate(over="ignore", invalid="ignore"):  # main refuses an inf
            diff = states - ref_states
            summary["sup_error"] = float(np.abs(diff).max())
            summary["rms_error"] = float(np.sqrt(np.mean(diff ** 2)))
    flags = np.zeros(times.size)
    if blowup is not None:
        flags[-1] = 1.0
    header += ",blowup"
    columns.append(flags)
    return {"simulation.csv": (header, np.column_stack(columns)),
            "simulation_summary.json": summary}


def cmd_convergence(cfg):
    system = make_system(cfg["system"], **cfg["params"])
    if cfg["dictionary"] is not None:
        d, g = _resolve_dictionary(cfg["dictionary"], system.n)
        if g is not None:
            raise _CliError("the dictionary's 'G' is not read by convergence")
    else:
        d = companion_dictionary(cfg["system"])
    study = convergence_study(
        d, system, _box(cfg, system), cfg["m_list"], cfg["runs"], seed=cfg["seed"],
        order=cfg["order"], relative=cfg["relative"], max_workers=cfg["workers"])
    return {"convergence_runs.csv": study.write_runs_csv,
            "convergence.csv": study.write_aggregate_csv,
            "convergence_summary.json": {"slope_R": study.slope_r,
                                         "slope_s": study.slope_s,
                                         "runs": study.runs,
                                         "m_list": [int(m) for m in study.sample_sizes]}}


def cmd_reduce(cfg):
    synthetic = cfg["data"] is None
    if synthetic:
        snapshots, _ = reduction.synthetic_lift_data(
            num_samples=cfg["samples"], lift_dim=cfg["lift_dim"], dt=cfg["dt"],
            noise=cfg["noise"], seed=cfg["seed"])
    else:
        snapshots = _load_rows(cfg["data"], header=False)
    result = reduction.reduced_identification_pipeline(
        snapshots, cfg["k"], cfg["train_fraction"], cfg["dt"], lam=cfg["lambda"])
    artifacts = {"snapshots.csv": (None, snapshots)} if synthetic else {}
    artifacts["pca.json"] = {
        "mean": result.basis.mean.tolist(),
        "components": result.basis.components.tolist(),
        "singular_values": result.basis.singular_values.tolist(),
    }
    artifacts["reduced_model.json"] = partial(save_model, result.model)
    k = result.reduced.shape[1]
    header = ("t," + ",".join(f"r{j + 1}_true" for j in range(k)) + ","
              + ",".join(f"r{j + 1}_model" for j in range(k)))
    times = np.arange(snapshots.shape[0]) * cfg["dt"]
    artifacts["forecast.csv"] = (
        header, np.column_stack([times, result.reduced, result.predicted]))
    gap = result.spectral_gap
    artifacts["reduction_report.json"] = {
        "k": k,
        "n_train": result.n_train,
        "train_rel_rms": result.train_rel_rms,
        "forecast_rel_rms": result.forecast_rel_rms,
        # inf when k covers the whole spectrum, which JSON cannot hold.
        "spectral_gap": None if math.isinf(gap) else gap,
        "singular_values": result.singular_spectrum[:min(
            10, result.singular_spectrum.size)].tolist(),
    }
    return artifacts


def cmd_report(cfg):
    kind, model = _load_model_file(cfg["model"])
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
    if cfg["training"] is not None:
        summary.update(_loss_fields(kind, model, load_training(cfg["training"]),
                                    cfg["training"]))
    return {"coefficients.csv": ("matrix,row,col,value",
                                 [(name, r, c, float(v)) for name, matrix in matrices
                                  for (r, c), v in np.ndenumerate(matrix)]),
            "report.json": summary}


# ---------------------------------------------------------------------------
# argument plumbing


class _Flag(NamedTuple):
    """A setting that is also the flag ``--<key>`` (underscores as dashes),
    with ``help`` text; a ``required`` setting must be given by flag or
    config."""
    default: object = None
    required: bool = False
    help: str = None


_SEED, _OUT = _Flag(0), _Flag(help="output directory (default: .)")

# Every setting of each command, declared once by its config key: a _Flag, or
# a plain default for a config-only key.  The parser, the defaults and the
# required-key check all read this table.
_SETTINGS = {
    "generate": {
        "system": _Flag(required=True), "params": {},
        "x0": _Flag(help="comma-separated start state (trajectory mode)"),
        "t_end": _Flag(10.0), "m": _Flag(100, help="number of samples"), "substeps": 10,
        "box": None, "derivatives": _Flag("exact"), "seed": _SEED, "out": _OUT,
    },
    "fit": {
        "method": _Flag("qendy"), "training": _Flag(required=True),
        "dictionary": _Flag(required=True, help="dictionary JSON path or builtin name"),
        "lambda": _Flag(0.0), "force_c_zero": _Flag(False), "threshold": _Flag(0.0),
        "rcond": None, "out": _OUT,
    },
    "simulate": {
        "model": _Flag(required=True),
        "x0": _Flag(required=True, help="comma-separated start state"),
        "t_end": _Flag(10.0), "dt": _Flag(1e-3),
        "reembed": _Flag(False, help="step a qendy model's state-space field "
                         "G dz(phi(x)), not its lifted state"),
        "system": _Flag(help="reference system for error columns"), "params": {},
        "out": _OUT,
    },
    "convergence": {
        "system": _Flag("pendulum"), "params": {}, "dictionary": _Flag(), "box": None,
        "m_list": [100, 1000, 10000], "runs": _Flag(10), "seed": _SEED,
        "order": 20, "relative": False, "workers": 1, "out": _OUT,
    },
    "reduce": {
        "data": _Flag(help="headerless snapshot CSV (default: synthetic)"),
        "samples": 500, "lift_dim": 100, "noise": 1e-3, "seed": _SEED,
        "k": _Flag(3), "train_fraction": _Flag(0.8), "dt": _Flag(0.1), "lambda": 0.0,
        "out": _OUT,
    },
    "report": {
        "model": _Flag(required=True),
        "training": _Flag(help="training CSV for loss reporting"), "out": _OUT,
    },
}


def _params(value) -> dict:
    return {name: _number(v) for name, v in _given(isinstance(value, dict), value).items()}


def _state(value) -> list:
    """A state as comma-separated text (flag) or a list of numbers (config)."""
    if isinstance(value, str):
        return [float(field) for field in value.split(",")]
    return _list_of(_number)(value)


# The kind of value each setting holds, by key, whichever command it belongs
# to.  A null is only accepted for a setting whose default is null, and means
# unset.
_READERS = {
    **dict.fromkeys(("t_end", "lambda", "threshold", "rcond", "dt", "noise",
                     "train_fraction"), _NUMBER),
    **dict.fromkeys(("m", "substeps", "seed", "runs", "order", "workers", "samples",
                     "lift_dim", "k"), _WHOLE),
    **dict.fromkeys(("force_c_zero", "reembed", "relative"), _SWITCH),
    **dict.fromkeys(("system", "dictionary", "training", "model", "data", "out"), _STRING),
    "method": _one_of(*_KINDS),
    "derivatives": _one_of("exact", "finite-difference"),
    "params": _Reader("an object mapping parameter names to numbers", _params),
    "x0": _Reader("a list of numbers or comma-separated text", _state),
    "m_list": _Reader("a list of integers", _list_of(_whole)),
    "box": _Reader("a list of [lo, hi] pairs", _list_of(_list_of(_number, 2))),
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
                p.add_argument("--" + key.replace("_", "-"), default=None, help=s.help,
                               **_READERS[key].flag)
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
        artifacts = _COMMANDS[command][0](cfg)
        for name, content in artifacts.items():  # a value JSON cannot hold fails before --out
            for key, value in content.items() if isinstance(content, dict) else ():
                if (bad := _non_finite(value)) is not None:
                    verb = "is" if bad is value else "holds"
                    raise _CliError(f"{name}: {key!r} {verb} {bad}")
        out = cfg["out"] or "."
        os.makedirs(out, exist_ok=True)
        paths = [os.path.join(out, name) for name in artifacts]
        for path, content in zip(paths, artifacts.values()):
            if isinstance(content, dict):
                write_json(path, content)
            elif isinstance(content, tuple):
                write_rows(path, *content)
            else:
                content(path)
        print(*paths, sep="\n")
        return 0
    except (_CliError, ConfigurationError, ValueError, OSError, KeyError, MemoryError,
            IntegrationBlowupError) as err:
        print(f"qendy: error in {stage}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
