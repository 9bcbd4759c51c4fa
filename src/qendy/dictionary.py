"""Feature dictionaries: ordered scalar basis functions over a state space.

A dictionary lifts a state ``x`` in R^n to ``z = (phi_1(x), ..., phi_N(x))``.
The quadratically augmented basis appends all pairwise products to the
dictionary: products ``phi_i * phi_j`` first (row-major in the index pair, so
pair (i, j) sits at flat position ``N*i + j``), then the N dictionary entries,
then the constant function.  That ordering matches the columnwise Kronecker
square used by the fitting code, which is checked by tests rather than
assumed.  The lifts hand their arguments straight to the dictionary's
compiled :class:`~qendy.expr.Program`, which checks their shapes and
evaluates a batch in blocks of :data:`qendy.expr.BLOCK` points: a batch lift
holds its (N, m) result, or both for the values and derivatives, plus one
block.  The readers of outside values (``_Reader``) convert and check the
fields of dictionary and model files and the command line's settings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import sample_uniform
from .expr import Const, Mul, Program, StateDimensionError, Var, parse, render

__all__ = [
    "ConfigurationError", "Dictionary", "AugmentedBasis",
    "feature_map", "feature_matrix", "jacobian", "feature_time_derivatives",
    "feature_matrix_and_derivatives",
    "augment", "full_state_matrix",
    "dictionary_to_json", "dictionary_from_json", "write_json", "save_dictionary",
    "load_dictionary",
]


class ConfigurationError(ValueError):
    """Dictionary or projection setup that cannot be used as requested."""


@dataclass(frozen=True)
class Dictionary:
    """An ordered tuple of basis functions over an n-dimensional state.

    The basis is compiled once, at construction, into ``program``, which
    every lift and lifted derivative runs.
    """

    state_dim: int
    basis: tuple
    names: tuple = ()
    program: Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if self.state_dim < 1:
            raise ConfigurationError(f"state dimension must be >= 1, got {self.state_dim}")
        if not basis:
            raise ConfigurationError("dictionary needs at least one basis function")
        names = tuple(self.names) if self.names else tuple(render(e) for e in basis)
        if len(names) != len(basis):
            raise ConfigurationError(
                f"{len(names)} names for {len(basis)} basis functions")
        object.__setattr__(self, "names", names)
        try:
            object.__setattr__(self, "program", Program(basis, self.state_dim))
        except StateDimensionError as err:
            raise ConfigurationError(
                f"basis entry {err.tree} ({names[err.tree]}) references "
                f"x{err.variable + 1} but state dimension is {self.state_dim}") from None

    @property
    def size(self) -> int:
        return len(self.basis)

    @classmethod
    def from_strings(cls, state_dim: int, texts) -> "Dictionary":
        return cls(state_dim, tuple(parse(t) for t in texts), tuple(texts))


def feature_map(d: Dictionary, x) -> np.ndarray:
    """Lift one point: returns z = phi(x) of shape (N,)."""
    return d.program.point(x)


def feature_matrix(d: Dictionary, points) -> np.ndarray:
    """Lift a batch: column k of the (N, m) result is phi(points[k])."""
    return d.program.values(points)


def jacobian(d: Dictionary, x) -> np.ndarray:
    """Jacobian of the lift at one point: row i is grad phi_i(x); shape (N, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d.state_dim,):
        raise ValueError(f"expected shape ({d.state_dim},), got {x.shape}")
    return d.program.gradients(x[None, :])[1][:, 0, :]


def feature_time_derivatives(d: Dictionary, points, derivatives) -> np.ndarray:
    """Chain rule along samples: column k is J(points[k]) @ derivatives[k].

    ``points`` and ``derivatives`` are (m, n); the result is (N, m), the time
    derivative of each lifted coordinate along the sampled motion.  It is one
    forward-mode tangent pass with the derivatives as the direction.
    """
    return d.program.tangents(points, derivatives)


def feature_matrix_and_derivatives(d: Dictionary, points, derivatives):
    """(:func:`feature_matrix`, :func:`feature_time_derivatives`) of the same
    samples from one evaluation of the dictionary's program."""
    return d.program.values_and_tangents(points, derivatives)


@dataclass(frozen=True)
class AugmentedBasis:
    """The dictionary extended by all pairwise products and the constant."""

    source: Dictionary

    def exprs(self) -> tuple:
        """All entries as expression trees, in augmented order."""
        basis = self.source.basis
        products = tuple(Mul(a, b) for a in basis for b in basis)
        return products + basis + (Const(1.0),)

    def as_dictionary(self) -> Dictionary:
        return Dictionary(self.source.state_dim, self.exprs())


def augment(d: Dictionary) -> AugmentedBasis:
    """Quadratically augmented basis of ``d`` (size N^2 + N + 1)."""
    return AugmentedBasis(d)


def full_state_matrix(d: Dictionary, override=None) -> np.ndarray:
    """The (n, N) matrix G with G phi(x) = x.

    Without ``override``, each coordinate x_j must literally appear as a
    dictionary entry; G then selects those entries.  A supplied ``override``
    is checked to recover the state within 1e-10 on 100 uniform samples
    (seed 0) from the unit box [-1, 1]^n before being returned.
    """
    n, size = d.state_dim, d.size
    if override is not None:
        override = np.asarray(override, dtype=float)
        if override.shape != (n, size):
            raise ConfigurationError(
                f"projection matrix must have shape ({n}, {size}), got {override.shape}")
        points = sample_uniform([(-1.0, 1.0)] * n, 100, 0)
        recovered = (override @ feature_matrix(d, points)).T
        worst = np.max(np.abs(recovered - points))
        if not worst < 1e-10:
            raise ConfigurationError(
                f"projection matrix does not recover the state (max error {worst:.3e})")
        return override
    g = np.zeros((n, size))
    for j in range(n):
        for i, e in enumerate(d.basis):
            if e == Var(j):
                g[j, i] = 1.0
                break
        else:
            raise ConfigurationError(
                f"coordinate x{j + 1} is not a dictionary entry; "
                "supply a projection matrix")
    return g


# ---------------------------------------------------------------------------
# serialization


def dictionary_to_json(d: Dictionary) -> dict:
    return {"state_dim": int(d.state_dim), "basis": [render(e) for e in d.basis]}


class _Reader(NamedTuple):
    """A kind of outside value, such as a config setting or a field of a model
    or dictionary file: ``what`` it must be, ``convert``, which returns it as
    the program uses it or raises TypeError or ValueError, and the argparse
    keywords of a ``flag`` that takes it (none: text)."""
    what: str
    convert: Callable
    flag: dict = {}

    def read(self, name, value):
        """``convert(value)``, or the ConfigurationError (a ValueError)
        ``<name> must be <what>, got <value as JSON>``."""
        try:
            return self.convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name} must be {self.what}, got {json.dumps(value, default=str)}") from None


def _given(ok, value):
    """``value``, which a reader refuses unless ``ok``."""
    if not ok:
        raise ValueError
    return value


def _number(value) -> float:
    """A JSON number; of text, only a number JSON cannot write (``"nan"``,
    ``"inf"``): ``"50"`` is refused."""
    if isinstance(value, bool) or isinstance(value, str) and math.isfinite(float(value)):
        raise ValueError
    return float(value)


def _whole(value) -> int:
    """A number that int() does not truncate; not true, false or text."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _list_of(convert, length=None) -> Callable:
    """Converts a list, of ``length`` items if given, item by item."""
    return lambda value: [convert(item) for item in _given(
        isinstance(value, list) and length in (None, len(value)), value)]


def _one_of(*options) -> _Reader:
    """A choice of one of the strings ``options``."""
    return _Reader(f"one of {', '.join(options)}",
                   lambda value: _given(value in options, value), {"choices": list(options)})


_NUMBER = _Reader("a number", _number, {"type": float})
_WHOLE = _Reader("an integer", _whole, {"type": int})
_SWITCH = _Reader("true or false", lambda value: _given(isinstance(value, bool), value),
                  {"action": "store_true"})
_STRING = _Reader("a string", lambda value: _given(isinstance(value, str), value))


def _coefficients(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape`` with only finite entries; any
    other value raises a ValueError that names the field ``name``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dictionary_from_json(obj: dict):
    """Returns (Dictionary, G-or-None)."""
    if not isinstance(obj, dict):
        raise ConfigurationError("dictionary JSON is not an object")
    try:
        state_dim, basis = obj["state_dim"], obj["basis"]
    except KeyError as missing:
        raise ConfigurationError(f"dictionary JSON lacks key {missing}") from None
    state_dim = _WHOLE.read("dictionary state_dim", state_dim)
    basis = _Reader("a list of expression strings", _list_of(lambda text: text)).read(
        "dictionary basis", basis)
    for i, text in enumerate(basis):
        _STRING.read(f"dictionary basis entry {i}", text)
    d = Dictionary.from_strings(state_dim, basis)
    g = obj.get("G")
    return d, None if g is None else _coefficients("G", g, (state_dim, d.size))


def write_json(path, obj):
    """Write ``obj`` as indented JSON with sorted keys and a final newline; a
    NaN or infinity in ``obj`` raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_dictionary(d: Dictionary, path):
    write_json(path, dictionary_to_json(d))


def load_dictionary(path):
    """Returns (Dictionary, G-or-None) from a JSON file."""
    with open(path) as fh:
        return dictionary_from_json(json.load(fh))
