"""Run one workload of the corules benchmark and print its metrics.

Run from the repository root::

    python3 bench/run.py --workload soft-100 --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed checks are
listed on standard error.  BLAS and OpenMP are pinned to one thread before
numpy is imported, because the thread count changes the simplex path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "corules" / "colgen.py").is_file():
        print(f"corules sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    import_seconds = time.perf_counter() - t0
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} threads "
          + " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS))
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), import_seconds)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
