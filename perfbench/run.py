#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload sweep-k-lossy --seed 1 --seconds 55 --trace 0

Prints every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when the
correctness gate fails and 2 when the checkout has no ``src/swan_aircomp``.
"""

import os
import sys
from pathlib import Path

# Thread-pool variables that numpy's BLAS and OpenMP read when imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "swan_aircomp" / "__init__.py").is_file():
        print(f"error: no swan_aircomp package under {src}", file=sys.stderr)
        sys.exit(2)
    # The workloads are single-threaded numpy; pin the pools before import.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main())
