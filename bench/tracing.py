"""Spans around calls into qendy's public functions, recorded from outside.

A :class:`Tracer` rebinds each probed function in every loaded ``qendy``
module that holds a reference to it (``from .x import f`` copies the binding
into the importing module, so the defining module alone is not enough), and
patches probed methods on their class.  While installed, every call records a
span ``(name, start, end, parent, size)`` in memory; leaving the ``with``
block restores the original bindings, so untraced code pays nothing.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Probe:
    """One probed callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  ``metric``
    is the stem the span totals are reported under (several probes may share
    one).  ``size(args, kwargs)`` returns the sample count a call works on,
    for per-size buckets; ``count(counts, args, kwargs, result)`` updates
    exact counts.
    """

    target: str
    metric: str
    size: object = None
    count: object = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    return lambda args, kwargs: int(_arg(args, kwargs, index, name).shape[0])


def _keep_max(counts, key, value):
    counts[key] = max(counts.get(key, 0), int(value))


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + int(value)


def _gram_counts(counts, args, kwargs, result):
    dim = result.matrix.shape[0]
    _keep_max(counts, "fitting.gram_dim", dim)
    _keep_max(counts, "fitting.stacked_bytes", dim * result.sample_count * 8)


def _solver_counts(counts, args, kwargs, result):
    # The rank of the largest system solved in the iteration.
    solver = args[0]
    dim = int(solver.eigenvalues.size)
    if dim > counts.get("linalg.dim", -1):
        counts["linalg.dim"] = dim
        counts["linalg.rank"] = solver.rank
        counts["linalg.null_dim"] = dim - solver.rank


def _limit_counts(counts, args, kwargs, result):
    _, weights = _arg(args, kwargs, 2, "space").nodes_weights()
    _keep_max(counts, "approx.limit_nodes", weights.size)


def _simulate_counts(counts, args, kwargs, result):
    _add(counts, "model.rk4_steps", result.times.size - 1)


def _rk4_counts(counts, args, kwargs, result):
    # Reference integrations of a system's own vector field are not model steps.
    from qendy.dynamics import VectorField
    if not isinstance(_arg(args, kwargs, 0, "f"), VectorField):
        _add(counts, "model.rk4_steps", result.times.size - 1)


PROBES = (
    Probe("qendy.dictionary:feature_matrix", "dictionary.feature_matrix",
          _rows(1, "points")),
    Probe("qendy.dictionary:feature_time_derivatives",
          "dictionary.feature_time_derivatives", _rows(1, "points")),
    Probe("qendy.model:kron_squared_cols", "model.kron_squared_cols",
          lambda a, k: int(_arg(a, k, 0, "z_cols").shape[1])),
    Probe("qendy.fitting:assemble_gram", "fitting.assemble_gram",
          lambda a, k: int(_arg(a, k, 0, "dm").sample_count), _gram_counts),
    Probe("qendy.dynamics:sample_uniform", "dynamics.sample",
          lambda a, k: int(_arg(a, k, 1, "num_samples"))),
    Probe("qendy.dynamics:exact_derivatives", "dynamics.sample",
          _rows(1, "points")),
    Probe("qendy.linalg:SymmetricPinvSolver.__init__", "linalg.eigh",
          count=_solver_counts),
    Probe("qendy.linalg:SymmetricPinvSolver.solve", "linalg.solve"),
    Probe("qendy.baselines:sindy_fit", "baselines.sindy_fit"),
    Probe("qendy.baselines:gedmd_fit", "baselines.gedmd_fit"),
    Probe("qendy.approx:limit_gram_system", "approx.limit_gram_system",
          count=_limit_counts),
    Probe("qendy.dynamics:save_training", "dynamics.save_training"),
    Probe("qendy.dynamics:load_training", "dynamics.load_training"),
    Probe("qendy.model:save_model", "model.save_model"),
    Probe("qendy.reduction:reduced_identification_pipeline",
          "reduction.reduced_identification_pipeline"),
    Probe("qendy.model:simulate", "model.simulate", count=_simulate_counts),
    Probe("qendy.dynamics:rk4_integrate", "dynamics.rk4_integrate",
          count=_rk4_counts),
)


class Tracer:
    """Records spans of probed calls while used as a context manager."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []

    def __enter__(self):
        for probe in PROBES:
            self._install(probe)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def take(self):
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    def _install(self, probe):
        module_name, attr = probe.target.split(":")
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(probe, original))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(probe, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "qendy" or name.startswith("qendy.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _wrap(self, probe, original):
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                size = probe.size(args, kwargs) if probe.size else None
                self.spans[index] = (probe.metric, start, end, parent, size)
            if probe.count is not None:
                probe.count(self.counts, args, kwargs, result)
            return result

        return wrapper
