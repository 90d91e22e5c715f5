"""Benchmark launcher for reggefem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the library from
the checkout's ``src/`` directory and nothing else.  It sets the BLAS
thread count to one (see BLAS_THREADS) before numpy is imported, runs one
workload for about ``--seconds`` seconds and prints, as
its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
traced run.  The workloads and metrics are described in ``BENCHMARK.json``
and ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread.  On a host whose few CPUs are shared, a second BLAS
# thread made the same dense solve vary by 10x from call to call (n=3:
# 0.64, 0.32, 0.04 s) while one thread repeated within a few percent.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reggefem", "__init__.py")):
        print(f"error: no reggefem sources under {SRC}; run the benchmark "
              "inside a source checkout", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    import numpy  # noqa: F401  (timed as part of set-up)
    import scipy.linalg  # noqa: F401
    import reggefem.cli  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), import_s, threads, ROOT)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
