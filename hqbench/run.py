"""Benchmark entry point for hadaquant; run from the repository root.

    python3 hqbench/run.py --workload ingest-large --seed 1 --seconds 55 --trace 0

Builds nothing: it imports hadaquant from this checkout's ``src/`` (never an
installed copy) with BLAS pinned to one thread and ``HQ_THREADS`` unset, so
the program runs in this one process. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Work files and span traces go to ``.hqbench_work/`` under the repository root.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (SRC / "hadaquant" / "__init__.py").is_file():
        print(f"error: {SRC / 'hadaquant'} not found; run from a hadaquant checkout",
              file=sys.stderr)
        return 2

    # Before numpy is imported: one BLAS thread, no process pool in bench.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("HQ_THREADS", None)
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    workdir = ROOT / ".hqbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
