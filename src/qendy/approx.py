"""The data-rich limit of the fitting problem, and the Monte Carlo study of
the empirical Gram system's convergence to it.

A measure is anything with ``nodes_weights()`` returning (nodes (M, n),
weights (M,)), such as :class:`BoxQuadrature`: the uniform measure on a box,
integrated by tensor-product Gauss-Legendre quadrature; with
``normalized=True`` the uniform measure is scaled to a probability measure,
which is the convention under which the empirical Gram matrix divided by the
sample count converges to its limit at the Monte Carlo rate.  The limit and
each Monte Carlo run sum the fitting code's Gram system as the fit does,
lifting one chunk of nodes or samples at a time, so neither holds a whole lift.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .dynamics import VectorField, exact_derivatives, sample_uniform, write_rows
from .fitting import lifted_chunks, quadratic_normal_equations

__all__ = [
    "BoxQuadrature", "limit_gram_system", "ConvergenceStudy", "convergence_study",
]


@dataclass(frozen=True)
class BoxQuadrature:
    """Uniform measure on an axis-aligned box, integrated by Gauss-Legendre.

    ``box`` is a tuple of (lo, hi) pairs; ``order`` nodes per axis integrate
    polynomials up to degree 2*order - 1 exactly per axis.  Normalization
    divides the weights by the box volume (probability measure).
    """

    box: tuple
    order: int = 20
    normalized: bool = True

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if any(hi <= lo for lo, hi in box):
            raise ValueError("box bounds must satisfy lo < hi on every axis")
        if self.order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {self.order}")
        object.__setattr__(self, "box", box)

    def nodes_weights(self):
        axis_nodes, axis_weights = [], []
        for lo, hi in self.box:
            xi, wq = np.polynomial.legendre.leggauss(self.order)
            axis_nodes.append(0.5 * (hi - lo) * xi + 0.5 * (hi + lo))
            axis_weights.append(0.5 * (hi - lo) * wq)
        grids = np.meshgrid(*axis_nodes, indexing="ij")
        points = np.column_stack([g.ravel() for g in grids])
        weights = np.ones(1)
        for wa in axis_weights:
            weights = np.multiply.outer(weights, wa).ravel()
        if self.normalized:
            volume = float(np.prod([hi - lo for lo, hi in self.box]))
            weights = weights / volume
        return points, weights


def limit_gram_system(d: Dictionary, field: VectorField, space):
    """Data-rich limit of the fitting system under the measure of ``space``.

    Returns (rstar (D, D), sstar (D, N)) over the augmented basis of ``d``
    in its usual order (products, entries, constant); column l of sstar pairs
    every augmented entry with grad phi_l . F.  These are the fitting
    code's normal equations on the quadrature nodes, weighted by the rule,
    with the nodes lifted like training data, a chunk at a time
    (:func:`qendy.fitting.lifted_chunks`, which names a non-finite lift).
    """
    points, weights = space.nodes_weights()
    return quadratic_normal_equations(
        lifted_chunks(d, exact_derivatives(field, points)), d.size, d.size, weights)


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """Per-run and aggregated errors of the empirical Gram system.

    ``e_r[i, j]`` is the error for sample size ``sample_sizes[i]``, run j;
    ``e_s[i, j, l]`` the per-output-row right-hand-side errors.
    """

    sample_sizes: tuple
    e_r: np.ndarray
    e_s: np.ndarray

    @property
    def runs(self) -> int:
        return self.e_r.shape[1]

    @property
    def e_r_mean(self) -> np.ndarray:
        return self.e_r.mean(axis=1)

    @property
    def e_s_mean(self) -> np.ndarray:
        return self.e_s.mean(axis=(1, 2))

    def _slope(self, means) -> float:
        return float(np.polyfit(np.log10(self.sample_sizes),
                                np.log10(means), 1)[0])

    @property
    def slope_r(self) -> float:
        return self._slope(self.e_r_mean)

    @property
    def slope_s(self) -> float:
        return self._slope(self.e_s_mean)

    def write_runs_csv(self, path):
        n_rows = self.e_s.shape[2]
        header = "m,run," + "e_R," + ",".join(f"e_s{l + 1}" for l in range(n_rows))
        write_rows(path, header, [
            [int(m), j, e_r, *e_s]
            for m, runs_r, runs_s in zip(self.sample_sizes, self.e_r.tolist(),
                                         self.e_s.tolist())
            for j, (e_r, e_s) in enumerate(zip(runs_r, runs_s))])

    def write_aggregate_csv(self, path):
        write_rows(path, "m,e_R_mean,e_s_mean", [
            [int(m), e_r, e_s] for m, e_r, e_s in zip(
                self.sample_sizes, self.e_r_mean.tolist(), self.e_s_mean.tolist())])


def _study_run(d, field, box, m, seed_seq, rstar, sstar, relative):
    points = sample_uniform(box, m, seed_seq)
    matrix, rhs = quadratic_normal_equations(
        lifted_chunks(d, exact_derivatives(field, points)), d.size, d.size)
    scale_r, scale_s = ((np.abs(rstar).mean(), np.abs(sstar).mean()) if relative
                        else (1.0, 1.0))
    return (float(np.abs(matrix / m - rstar).mean() / scale_r),
            np.abs(rhs / m - sstar).mean(axis=0) / scale_s)


def convergence_study(d: Dictionary, field: VectorField, box, sample_sizes,
                      runs: int, seed: int = 0, order: int = 20,
                      relative: bool = False, max_workers: int = 1) -> ConvergenceStudy:
    """Monte Carlo convergence of the empirical Gram system to its limit.

    For each sample size, ``runs`` independent uniform draws from ``box`` are
    fitted and compared entrywise (mean absolute difference; with
    ``relative=True`` scaled by the mean magnitude of the limit object)
    against the quadrature limit.  Run seeds are spawned per (size, run)
    index, so results do not depend on execution order and ``max_workers``
    only affects speed.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    sample_sizes = tuple(int(m) for m in sample_sizes)
    if any(m < 1 for m in sample_sizes):
        raise ValueError("sample sizes must be positive")
    if len(set(sample_sizes)) < 2:
        raise ValueError(
            "a convergence slope needs at least two distinct sample sizes, "
            f"got {list(sample_sizes)}")
    if runs < 1:
        raise ValueError("need at least one run")
    rstar, sstar = limit_gram_system(d, field, BoxQuadrature(box, order))
    e_r = np.empty((len(sample_sizes), runs))
    e_s = np.empty((len(sample_sizes), runs, d.size))
    tasks = [(i, j, np.random.SeedSequence(entropy=seed, spawn_key=(i, j)))
             for i in range(len(sample_sizes)) for j in range(runs)]

    def run_one(task):
        i, j, seq = task
        e_r[i, j], e_s[i, j] = _study_run(
            d, field, box, sample_sizes[i], seq, rstar, sstar, relative)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(run_one, tasks))
    else:
        for task in tasks:
            run_one(task)
    return ConvergenceStudy(sample_sizes, e_r, e_s)
