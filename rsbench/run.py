"""Benchmark entry point: one workload, one seed, one result line.

    python3 rsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics.  A full report (machine, versions,
workload parameters, solve and update counts, checks) is printed above
it.  The process exits non-zero, without a result line, when the
library, its data or the verifier cannot be loaded from this checkout.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy is imported anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import rowsplit from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import rowsplit

    where = Path(rowsplit.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"rowsplit was imported from {where}, not from this checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        _import_library()
        from rsbench import harness
        from rsbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"rsbench: cannot load the library or the verifier: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    line, report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), ROOT, BLAS_THREADS)
    print(json.dumps(report, indent=1, default=str))
    for name, m in line["metrics"].items():
        print(f"# {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"# correct={line['correct']} attempted={line['attempted']} failed={line['failed']}"
          f" unverified={report['operations']['unverified']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
