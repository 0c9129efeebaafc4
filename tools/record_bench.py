"""Record a BENCH_<pr>.json: the benchmark and tier-1 at a parent rev and a head rev.

    python3 tools/record_bench.py 12 <parent-rev> <head-rev>

Each rev is run from a fresh ``git clone`` of this repository in a temporary
directory (set TMPDIR to choose where). For each workload, the parent and the
head run ``python3 hqbench/run.py --workload <w> --seed <pr> --seconds 55
--trace 0``, the parent first on the first workload and the head first on the
second, so that drift over time does not land on one side only. The ``env:``
line and the last line, one JSON object, of each run are kept. Tier-1 then
runs once per rev, and its summary line and the ``--durations=10`` table that
pyproject.toml asks for are kept. Both the benchmark and tier-1 run under the
interpreter that runs this script. The file is written to BENCH_<pr>.json at
the repository root. Standard library only; it imports nothing from the
benchmark or the package.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-large", "fine-grid")
SECONDS = 55
BENCH = "hqbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(.+)$")  # node ids may hold spaces


def clone(rev: str, into: Path) -> Path:
    subprocess.run(["git", "clone", "-q", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "-q", rev], check=True)
    return into


def run_bench(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *BENCH.format(workload=workload, seed=seed, seconds=SECONDS).split()]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    env = next(json.loads(line[len("env: "):]) for line in lines if line.startswith("env: "))
    return env, json.loads(lines[-1])


def run_tier1(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    lines = proc.stdout.splitlines()
    slowest = []
    for line in lines:
        match = DURATION.match(line.strip())
        if match:
            seconds, phase, test = match.groups()
            slowest.append({"seconds": float(seconds), "phase": phase, "test": test})
    summary = next(line.strip("= ") for line in reversed(lines) if line.strip())
    return {"summary": summary, "slowest": slowest}


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "unknown"
    return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                 if line.startswith("model name")), "unknown")


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not argv[0].isdigit():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    pr, revs = int(argv[0]), {"parent": argv[1], "head": argv[2]}
    runs = {side: {} for side in revs}
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        checkouts = {side: clone(rev, Path(tmp) / side) for side, rev in revs.items()}
        for i, workload in enumerate(WORKLOADS):
            order = list(checkouts.items())
            for side, checkout in order[::-1] if i % 2 else order:
                print(f"{side} {workload} ...", file=sys.stderr, flush=True)
                env, result = run_bench(checkout, workload, pr)
                runs[side].setdefault("env", env)
                runs[side][workload] = result
        for side, checkout in checkouts.items():
            print(f"{side} tier-1 ...", file=sys.stderr, flush=True)
            runs[side]["tier1"] = run_tier1(checkout)
    record = {
        "what": "hqbench end-to-end metrics (last JSON line of hqbench/run.py) and tier-1 "
                "pytest durations, at the parent commit and at the change",
        "commands": {
            "bench": "python " + BENCH.format(workload="<" + "|".join(WORKLOADS) + ">", seed=pr,
                                  seconds=SECONDS),
            "tier1": f"PYTHONPATH=src python {' '.join(TIER1)}  (pyproject adds --durations=10)",
        },
        "machine": {"cpu_model": cpu_model(),
                    "note": f"{os.cpu_count()} CPUs; single runs, read as +-20%"},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
