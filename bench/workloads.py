"""The three benchmark workloads.

Each workload is built from a spec (sizes plus the expected values its output
checks use) and the workload seed.  Building it is the set-up: it generates
the inputs, computes any reference the checks need, and runs one warm-up
iteration.  ``iteration(rec, tracer)`` then runs one fixed unit of work,
records its timings in ``rec`` and checks every operation's output.  Program
calls run inside ``traced(tracer)`` so a traced iteration records spans for
them; the checks and references never do.

The check bounds are the acceptance criteria's own (tests/test_acceptance.py)
and are not tuned to the workloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from qendy import approx, baselines, cli, dictionary, dynamics, fitting, model
from qendy import systems

ROOT = Path(__file__).resolve().parent.parent


def traced(tracer):
    """The tracer as a context manager, or a no-op for untraced iterations."""
    return tracer if tracer is not None else contextlib.nullcontext()


def _timed(tracer, call):
    """(result, seconds) of ``call()``.  The call must look up the program's
    function when it runs, so a tracer installed here sees it."""
    with traced(tracer):
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
    return result, elapsed


def _failures(*checks):
    """Messages of the (passed, message) checks that did not pass."""
    return [message for passed, message in checks if not passed]


def _rel_dev(value, reference) -> float:
    return float(np.abs(value - reference).max() / np.abs(reference).max())


# ---------------------------------------------------------------------------
# wide-fit


@dataclass(frozen=True)
class WideFitSpec:
    samples: int = 100_000
    held_out: int = 1000
    half_width: float = 5.0
    field_sup: float = 1e-5            # criterion 6, 15-entry recovery
    nonzeros: tuple = (141, 18, 0)     # criterion 6, A, B, C
    sindy_sup: float = 1e-4            # criterion 5, direct regression
    gedmd_residual_rel: float = 1e-8


class WideFit:
    """One qendy fit and one SINDy/gEDMD pair on 241-column Thomas data."""

    primary = ("fit_s", "s per fitting.fit")
    secondary = ("baseline_fit_s", "s per sindy_fit + gedmd_fit pair")
    rates = {}
    sizes = ()

    def __init__(self, spec: WideFitSpec, seed: int):
        self.spec = spec
        self.field = systems.thomas(alpha=0.25, beta=0.15)
        self.d = systems.thomas_extended_dictionary()
        box = [(-spec.half_width, spec.half_width)] * 3
        points = dynamics.sample_uniform(box, spec.samples, seed=[seed, 0])
        self.ts = dynamics.exact_derivatives(self.field, points)
        self.held_out = dynamics.sample_uniform(box, spec.held_out, seed=[seed, 1])
        self.held_out_field = self.field.many(self.held_out)
        # gEDMD reference: the same lifted data solved by dense least squares.
        self.phi = dictionary.feature_matrix(self.d, points)
        self.phi_dot = dictionary.feature_time_derivatives(
            self.d, points, self.ts.derivatives)
        theta_ref = np.linalg.lstsq(self.phi.T, self.phi_dot.T, rcond=None)[0].T
        self.gedmd_residual = self._residual(theta_ref)
        self._fit_all(None)

    def _residual(self, theta) -> float:
        return float(np.linalg.norm(self.phi_dot - theta @ self.phi))

    def _fit_all(self, tracer):
        fitted, fit_s = _timed(tracer, lambda: fitting.fit(self.d, self.ts))
        with traced(tracer):
            start = perf_counter()
            sindy = baselines.sindy_fit(self.d, self.ts)
            gedmd = baselines.gedmd_fit(self.d, self.ts)
            pair_s = perf_counter() - start
        return fitted, sindy, gedmd, fit_s, pair_s

    def iteration(self, rec, tracer):
        spec = self.spec
        fitted, sindy, gedmd, fit_s, pair_s = self._fit_all(tracer)
        rec.time("fit_s", fit_s)
        rec.time("baseline_fit_s", pair_s)

        sup = np.abs(model.extract_rhs_many(fitted, self.held_out)
                     - self.held_out_field).max()
        report = model.sparsity_report(fitted)
        nnz = (report.a_nonzeros, report.b_nonzeros, report.c_nonzeros)
        rec.op("fit", _failures(
            (sup < spec.field_sup, f"held-out field sup {sup:.3e} >= {spec.field_sup}"),
            (nnz == tuple(spec.nonzeros), f"nonzeros {nnz} != {tuple(spec.nonzeros)}")))

        sup = np.abs(baselines.sindy_rhs_many(sindy, self.held_out)
                     - self.held_out_field).max()
        rec.op("sindy_fit", _failures(
            (sup < spec.sindy_sup, f"held-out field sup {sup:.3e} >= {spec.sindy_sup}")))

        gap = abs(self._residual(gedmd.theta) - self.gedmd_residual)
        rec.op("gedmd_fit", _failures(
            (gap <= spec.gedmd_residual_rel * self.gedmd_residual,
             f"residual differs from lstsq by {gap:.3e} "
             f"(reference {self.gedmd_residual:.6e})")))


# ---------------------------------------------------------------------------
# mc-study


@dataclass(frozen=True)
class McStudySpec:
    sizes: tuple = (100, 1000, 10_000, 100_000)
    runs: int = 100
    slope_range: tuple = (-0.65, -0.35)  # criterion 3
    limit_order: int = 20
    limit_calls: int = 10
    limit_rel: float = 1e-12


class McStudy:
    """Criterion 3's Monte Carlo study plus the thomas15 quadrature limit."""

    primary = ("study_run_s", "s per Monte Carlo run")
    secondary = ("limit_s", "s per limit_gram_system")
    rates = {"study_run_s": "study_runs_per_s"}

    def __init__(self, spec: McStudySpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.sizes = tuple(spec.sizes)
        self.runs_per_size = spec.runs
        self.study_args = (systems.pendulum_dictionary(), systems.pendulum(c=0.1),
                           [(-1.0, 1.0)] * 2)
        self.d = systems.thomas_extended_dictionary()
        self.field = systems.thomas(alpha=0.25, beta=0.15)
        self.space = approx.BoxQuadrature([(-1.0, 1.0)] * 3, spec.limit_order)
        # Independent oracle: the weighted Gram of [z kron z, z, 1] and the
        # weighted lifted derivatives on the same nodes.
        nodes, weights = self.space.nodes_weights()
        z = dictionary.feature_matrix(self.d, nodes)
        table = np.vstack([model.kron_squared_cols(z), z, np.ones((1, weights.size))])
        weighted = table * weights
        self.rstar = weighted @ table.T
        self.sstar = weighted @ dictionary.feature_time_derivatives(
            self.d, nodes, self.field.many(nodes)).T
        approx.convergence_study(*self.study_args, self.sizes[:2], 2, seed=seed)
        approx.limit_gram_system(self.d, self.field, self.space)

    def iteration(self, rec, tracer):
        spec = self.spec
        study, elapsed = _timed(tracer, lambda: approx.convergence_study(
            *self.study_args, self.sizes, spec.runs, seed=self.seed, max_workers=1))
        rec.time("study_run_s", elapsed / (len(self.sizes) * spec.runs))
        lo, hi = spec.slope_range
        rec.op("convergence_study", _failures(
            *((bool(np.all(np.diff(means) < 0.0)),
               f"{label} means not strictly decreasing: {means}")
              for label, means in (("e_R", study.e_r_mean), ("e_s", study.e_s_mean))),
            *((lo < slope < hi, f"slope_{label} {slope:.3f} outside ({lo}, {hi})")
              for label, slope in (("R", study.slope_r), ("s", study.slope_s)))))

        for _ in range(spec.limit_calls):
            (rstar, sstar), elapsed = _timed(tracer, lambda: approx.limit_gram_system(
                self.d, self.field, self.space))
            rec.time("limit_s", elapsed)
            dev_r = _rel_dev(rstar, self.rstar)
            dev_s = _rel_dev(sstar, self.sstar)
            rec.op("limit_gram_system", _failures(
                (dev_r <= spec.limit_rel, f"rstar {dev_r:.3e} from oracle > {spec.limit_rel}"),
                (dev_s <= spec.limit_rel, f"sstar {dev_s:.3e} from oracle > {spec.limit_rel}")))


# ---------------------------------------------------------------------------
# forecast-cli


@dataclass(frozen=True)
class ForecastCliSpec:
    # Training data: criterion 5's trajectory (start, span, exact
    # derivatives), sampled at every integration step.
    samples: int = 20_000
    train_x0: tuple = (1.0, -1.0, 0.0)
    train_t_end: float = 100.0
    substeps: int = 1
    fit_c_max: float = 1e-6            # criterion 5, max |C|
    fit_nonzeros: tuple = (24, 6, 0)   # criterion 5, A, B, C
    starts: int = 8
    t_end: float = 10.0
    dt: float = 0.01
    sim_sup: float = 1e-2          # criterion 5
    forecast_rel_rms: float = 0.1  # criterion 7
    replay_calls: int = 200


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _artifacts(directory: Path) -> dict:
    """{relative path: (size, sha256)} of every file under ``directory``."""
    return {str(p.relative_to(directory)):
            (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _floats(x) -> str:
    return ",".join(repr(float(v)) for v in x)


class ForecastCli:
    """The README round trip through ``qendy.cli.main``: thomas9 fitted to
    criterion 5's trajectory at m=20000, simulated from seeded starts."""

    primary = ("cli_s", "s per round trip")
    secondary = ("sim_step_s", "s of simulate wall time per model RK4 step")
    rates = {"sim_step_s": "sim_steps_per_s"}
    sizes = ()

    def __init__(self, spec: ForecastCliSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng([seed, 2])
        self.starts = rng.uniform(-1.0, 1.0, (spec.starts, 3))
        self.tmp_root = ROOT / ".bench_tmp"
        self.tmp_root.mkdir(exist_ok=True)
        self.reference = None
        warm = ForecastCliSpec(samples=200, train_t_end=1.0, starts=1, t_end=0.1)
        with self._workdir() as out:
            for _, argv in self._calls(out, warm, self.starts[:1]):
                _quiet_main(argv)

    @contextlib.contextmanager
    def _workdir(self):
        out = Path(tempfile.mkdtemp(prefix="forecast-", dir=self.tmp_root))
        try:
            yield out
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _calls(self, out: Path, spec, starts):
        """(label, argv) of every CLI call in one round trip, in order.

        Each call writes into its own directory ``out / label``.  The
        integration substeps of ``generate`` have no flag, so they come from
        a config file written beside those directories.
        """
        training = str(out / "generate" / "training.csv")
        config = out / "generate.json"
        config.write_text(json.dumps({"substeps": spec.substeps}))
        calls = [("generate", [
            "generate", "--config", str(config), "--system", "thomas",
            f"--x0={_floats(spec.train_x0)}", "--t-end", repr(spec.train_t_end),
            "--m", str(spec.samples), "--out", str(out / "generate")])]
        for method, extra in (("qendy", []), ("sindy", ["--threshold", "0.01"]),
                              ("gedmd", [])):
            calls.append((f"fit-{method}", [
                "fit", "--training", training, "--dictionary", "thomas9",
                "--method", method, *extra, "--out", str(out / f"fit-{method}")]))
        runs = [("qendy", k, x0) for k, x0 in enumerate(starts)]
        runs += [("sindy", 0, starts[0]), ("gedmd", 0, starts[0])]
        for method, k, x0 in runs:
            calls.append((f"simulate-{method}-{k}", [
                "simulate", "--model", str(out / f"fit-{method}" / "model.json"),
                f"--x0={_floats(x0)}", "--t-end", repr(spec.t_end),
                "--dt", repr(spec.dt), "--system", "thomas",
                "--out", str(out / f"simulate-{method}-{k}")]))
        for method in ("qendy", "sindy", "gedmd"):
            calls.append((f"report-{method}", [
                "report", "--model", str(out / f"fit-{method}" / "model.json"),
                "--training", training, "--out", str(out / f"report-{method}")]))
        calls.append(("reduce", ["reduce", "--out", str(out / "reduce")]))
        return calls

    def iteration(self, rec, tracer):
        spec = self.spec
        with self._workdir() as out:
            results = []
            for label, argv in self._calls(out, spec, self.starts):
                code, elapsed = _timed(tracer, lambda: _quiet_main(argv))
                results.append((label, code, elapsed))
                rec.time(f"cli.{argv[0]}_s", elapsed, total=True)
            rec.time("cli_s", sum(elapsed for _, _, elapsed in results))

            artifacts = {label: _artifacts(out / label) for label, _, _ in results}
            if self.reference is None:
                self.reference = artifacts
            for label, code, elapsed in results:
                if code != 0:
                    rec.op(label, [f"exit code {code}"])
                    continue
                checks = [(artifacts[label] == self.reference.get(label),
                           "artifacts differ from the first iteration's")]
                if label == "fit-qendy":
                    fitted = model.load_model(out / label / "model.json")
                    c_max = float(np.abs(fitted.c).max())
                    report = model.sparsity_report(fitted)
                    nnz = (report.a_nonzeros, report.b_nonzeros, report.c_nonzeros)
                    checks += [(c_max < spec.fit_c_max,
                                f"max|C| {c_max:.3e} >= {spec.fit_c_max}"),
                               (nnz == tuple(spec.fit_nonzeros),
                                f"nonzeros {nnz} != {tuple(spec.fit_nonzeros)}")]
                if label.startswith("simulate-"):
                    summary = json.loads((out / label / "simulation_summary.json").read_text())
                    rec.time("sim_step_s", elapsed / (summary["samples"] - 1))
                    if label.startswith("simulate-qendy-"):
                        checks.append((summary["sup_error"] < spec.sim_sup,
                                       f"sup_error {summary['sup_error']:.3e} >= {spec.sim_sup}"))
                if label == "reduce":
                    rms = json.loads((out / label / "reduction_report.json").read_text())[
                        "forecast_rel_rms"]
                    checks.append((rms < spec.forecast_rel_rms,
                                   f"forecast_rel_rms {rms:.3e} >= {spec.forecast_rel_rms}"))
                rec.op(label, _failures(*checks))
            if tracer is not None and all(code == 0 for _, code, _ in results):
                rec.count("cli.artifact_bytes", sum(
                    size for files in artifacts.values() for size, _ in files.values()))
                self._replay(rec, out)

    def _replay(self, rec, out: Path):
        """Single-layer timings, replaying the CLI's calls on its artifacts."""
        spec = self.spec
        x0 = self.starts[0]
        steps = int(round(spec.t_end / spec.dt))
        start = perf_counter()
        qmodel = model.load_model(out / "fit-qendy" / "model.json")
        rec.time("model.load_model_s", perf_counter() - start, total=True)
        start = perf_counter()
        model.simulate(qmodel, x0, spec.t_end, spec.dt)
        rec.time("model.simulate_step_us", (perf_counter() - start) / steps * 1e6)
        start = perf_counter()
        dynamics.rk4_integrate(systems.thomas(), x0, spec.t_end, spec.dt)
        rec.time("dynamics.rk4_integrate_step_us",
                 (perf_counter() - start) / steps * 1e6)
        sindy = baselines.sindy_from_json(
            json.loads((out / "fit-sindy" / "model.json").read_text()))
        point = x0[None, :]
        start = perf_counter()
        for _ in range(spec.replay_calls):
            baselines.sindy_rhs_many(sindy, point)
        rec.time("baselines.sindy_rhs_many_call_us",
                 (perf_counter() - start) / spec.replay_calls * 1e6)


WORKLOADS = {
    "wide-fit": (WideFit, WideFitSpec),
    "mc-study": (McStudy, McStudySpec),
    "forecast-cli": (ForecastCli, ForecastCliSpec),
}
