"""Lets subprocesses started by the tests import qendy from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
``sys.path``; child interpreters (``python -m qendy.cli``) read PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
