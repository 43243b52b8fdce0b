"""Layer-by-layer benchmark of the bssnmr package.

Run from the repository root:

    python3 perfbench/run.py --workload plan_sample --seed 1 --seconds 8 --trace 0

Workloads: plan_sample, signed_roster, library_io, cli_bench (see
``workloads.py``).  With ``--trace 0`` the last line of standard output is
a JSON object holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` the run is traced and reports every per-layer metric, and the
spans are written to ``.perfbench_out/``.  The line before it carries the
run's provenance, sample, table hash and check results.  The package is
imported from ``./src``; the run exits with code 2 if it is missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("plan_sample", "signed_roster", "library_io", "cli_bench")
# Every workload runs one BLAS thread per process, set before numpy loads;
# the CLI subprocess of cli_bench inherits the setting.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bssnmr" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in SINGLE_THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    correct, attempted, failed, metrics, detail = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
