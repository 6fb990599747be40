"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload build-core --seed 0 --seconds 36 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it records spans at the library's layer boundaries and reports the
per-layer metrics instead (see measure.py).  BLAS and OpenMP run one
thread.

Standard output ends with two JSON lines: the full record (seed, sizes,
versions, thread settings, failures, every metric), then the summary
``{"correct", "attempted", "failed", "metrics"}``.  The set-up and metric
definitions, and why each workload exists, are in README.md beside this
file; the metric names and units are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Pin BLAS/OpenMP threads before numpy loads its BLAS.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "bld_kaporin" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import measure, summary_line
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tracer=Tracer() if args.trace else None)
    record = measure(workload, args.seconds)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
