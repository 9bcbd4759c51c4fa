"""Benchmark vector fields and their companion dictionaries.

Every system is an expression field (:meth:`VectorField.from_exprs`): its
components are parsed from text, with parameters written in as ``repr``
floats, and compiled into one :class:`~qendy.expr.Program`, whose array
binding runs a batch or one state and whose RK4 loop runs over floats.  Each
expression performs the same floating-point operations as the NumPy code it
replaced (``a - b`` as ``a + (-1*b)``, which is exact), except
``rational_decay``: ``-x/(1+x)`` is now ``(-x)*(1/(1+x))``, which moves about
a fifth of its values by one ulp.
"""

from __future__ import annotations

import math

from .dictionary import Dictionary
from .dynamics import VectorField

__all__ = [
    "pendulum", "pendulum_dictionary",
    "rational_decay", "rational_dictionary",
    "thomas", "thomas_dictionary", "thomas_extended_dictionary",
    "quartic_decoupled", "quartic_coupled", "quartic_dictionary",
    "mean_field", "identity_dictionary",
    "make_system", "make_dictionary", "companion_dictionary",
]


def _num(value, name: str) -> str:
    """Parameter ``name``, which must be finite, as ``repr`` text: it round-trips."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"parameter {name!r} must be finite, got {value}")
    return repr(value)


def pendulum(c: float = 0.1) -> VectorField:
    """Damped pendulum: dx1 = x2, dx2 = -sin(x1) - c*x2."""
    return VectorField.from_exprs(2, ["x2", f"-sin(x1) - {_num(c, 'c')}*x2"])


def pendulum_dictionary() -> Dictionary:
    return Dictionary.from_strings(2, ["x1", "x2", "sin(x1)", "cos(x1)"])


def rational_decay() -> VectorField:
    """Scalar saturating decay: dx = -x / (1 + x), computed as (-x)*(1/(1+x))."""
    return VectorField.from_exprs(1, ["-x1/(1+x1)"])


def rational_dictionary() -> Dictionary:
    return Dictionary.from_strings(1, ["x1", "1/(1+x1)", "x1/(1+x1)^2"])


def thomas(alpha: float = 0.2, beta: float = 0.0) -> VectorField:
    """Cyclically symmetric Thomas system with an optional cosine coupling.

    dx1 = sin(x2) - alpha*x1 - beta*x2*cos(x1), and cyclic in (1, 2, 3).
    beta = 0 recovers the classical chaotic system.
    """
    a, b = _num(alpha, "alpha"), _num(beta, "beta")
    return VectorField.from_exprs(3, [
        f"sin(x2) - {a}*x1 - {b}*x2*cos(x1)",
        f"sin(x3) - {a}*x2 - {b}*x3*cos(x2)",
        f"sin(x1) - {a}*x3 - {b}*x1*cos(x3)",
    ])


def thomas_dictionary() -> Dictionary:
    """States plus sines and cosines of each coordinate (9 entries)."""
    return Dictionary.from_strings(3, [
        "x1", "x2", "x3",
        "sin(x1)", "sin(x2)", "sin(x3)",
        "cos(x1)", "cos(x2)", "cos(x3)",
    ])


def thomas_extended_dictionary() -> Dictionary:
    """The 9-entry Thomas dictionary plus the six mixed products that close
    the cosine-coupled system quadratically (15 entries)."""
    return Dictionary.from_strings(3, [
        "x1", "x2", "x3",
        "sin(x1)", "sin(x2)", "sin(x3)",
        "cos(x1)", "cos(x2)", "cos(x3)",
        "x2*sin(x1)", "x3*sin(x2)", "x1*sin(x3)",
        "x2*cos(x1)", "x3*cos(x2)", "x1*cos(x3)",
    ])


def quartic_decoupled() -> VectorField:
    """dx1 = x1 - x2^4, dx2 = 2*x2; linear in the lift (x1, x2, x2^4)."""
    return VectorField.from_exprs(2, ["x1 - x2^4", "2*x2"])


def quartic_coupled() -> VectorField:
    """dx1 = x1 - x2^4, dx2 = x1 + 2*x2; not closed by (x1, x2, x2^4)."""
    return VectorField.from_exprs(2, ["x1 - x2^4", "x1 + 2*x2"])


def quartic_dictionary() -> Dictionary:
    return Dictionary.from_strings(2, ["x1", "x2", "x2^4"])


def mean_field(mu: float = 0.1, omega: float = 1.0, coupling: float = -0.1,
               relax: float = 10.0) -> VectorField:
    """Three-dimensional oscillator with an attracting limit cycle.

    The first two coordinates spiral onto a circle of squared radius
    mu / |coupling| while the third relaxes at rate ``relax`` onto the
    paraboloid x3 = x1^2 + x2^2.  The right-hand side is quadratic, so an
    identity-dictionary fit can represent it exactly.
    """
    mu, omega, coupling, relax = map(_num, (mu, omega, coupling, relax),
                                     ("mu", "omega", "coupling", "relax"))
    return VectorField.from_exprs(3, [
        f"{mu}*x1 - {omega}*x2 + {coupling}*x1*x3",
        f"{omega}*x1 + {mu}*x2 + {coupling}*x2*x3",
        f"-{relax}*(x3 - x1^2 - x2^2)",
    ])


def identity_dictionary(n: int) -> Dictionary:
    """The coordinates themselves: z = x."""
    return Dictionary.from_strings(n, [f"x{j + 1}" for j in range(n)])


# Name-keyed factories for the command line.  Unknown keyword arguments are
# rejected by the underlying constructors.

_SYSTEMS = {
    "pendulum": pendulum,
    "rational": rational_decay,
    "thomas": thomas,
    "quartic": quartic_decoupled,
    "quartic-coupled": quartic_coupled,
    "mean-field": mean_field,
}

_DICTIONARIES = {
    "pendulum": pendulum_dictionary,
    "rational": rational_dictionary,
    "thomas9": thomas_dictionary,
    "thomas15": thomas_extended_dictionary,
    "quartic": quartic_dictionary,
    "identity": identity_dictionary,
}

# Default dictionary for each named system.
_COMPANIONS = {
    "pendulum": "pendulum",
    "rational": "rational",
    "thomas": "thomas9",
    "quartic": "quartic",
    "quartic-coupled": "quartic",
    "mean-field": None,
}


def make_system(name: str, **params) -> VectorField:
    if name not in _SYSTEMS:
        raise ValueError(f"unknown system {name!r}; known: {sorted(_SYSTEMS)}")
    try:
        return _SYSTEMS[name](**params)
    except TypeError as err:
        raise ValueError(f"bad parameters for system {name!r}: {err}") from None


def make_dictionary(name: str, **params) -> Dictionary:
    if name not in _DICTIONARIES:
        raise ValueError(f"unknown dictionary {name!r}; known: {sorted(_DICTIONARIES)}")
    try:
        return _DICTIONARIES[name](**params)
    except TypeError as err:
        raise ValueError(f"bad parameters for dictionary {name!r}: {err}") from None


def companion_dictionary(system_name: str) -> Dictionary:
    """The default dictionary paired with a named system."""
    key = _COMPANIONS.get(system_name)
    if key is None:
        raise ValueError(f"system {system_name!r} has no default dictionary")
    return _DICTIONARIES[key]()
