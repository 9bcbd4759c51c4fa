"""Shared test setup.

Lets subprocesses started by the tests import qendy from this checkout:
``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
``sys.path``; child interpreters (``python -m qendy.cli``) read PYTHONPATH.
Also provides the array RK4 loop that the compiled loop is checked against.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from qendy import dynamics

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def _array_rk4_integrate(f, x0, t_end, dt):
    """:func:`qendy.dynamics.rk4_integrate` for any callable ``f`` on (n,)
    arrays: every step is :func:`qendy.dynamics.rk4_step`, looked up at call
    time so that a test can count the steps, and the first non-finite state
    raises IntegrationBlowupError with a copy of the finite path."""
    dt = float(dt)
    steps = dynamics._step_count(t_end, dt)
    states = np.empty((steps + 1, np.size(x0)))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = dynamics.rk4_step(f, states[k], dt)
            if not np.isfinite(x).all():
                raise dynamics.IntegrationBlowupError(k + 1, dynamics.Trajectory(
                    np.arange(k + 1) * dt, states[:k + 1].copy()))
            states[k + 1] = x
    return dynamics.Trajectory(np.arange(steps + 1) * dt, states)


@pytest.fixture
def array_rk4_integrate():
    """The array RK4 loop, the oracle of the compiled ``rk4`` binding."""
    return _array_rk4_integrate
