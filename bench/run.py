"""qendy benchmark entry point.

    python3 bench/run.py --workload wide-fit --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; qendy is imported from its ``src``
directory.  Report lines go to standard output, and the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wide-fit", "mc-study", "forecast-cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "qendy" / "__init__.py").is_file():
        print(f"bench: no qendy sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # One process; BLAS may use at most one thread per CPU this process may
    # run on.  Must be set before NumPy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    start = perf_counter()
    import numpy  # noqa: F401
    import qendy
    import_s = perf_counter() - start
    if Path(qendy.__file__).resolve().parent != SRC / "qendy":
        print(f"bench: imported qendy from {qendy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from harness import run_workload
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace, import_s=import_s)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
