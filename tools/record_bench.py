"""Record a BENCH_<pr>.json: the benchmark and tier-1 at a parent rev and a head rev.

    python3 tools/record_bench.py 15 <parent-rev> <head-rev>

Each rev is run from a fresh ``git clone`` of this repository in a temporary
directory (set TMPDIR to choose where). BENCHMARK.json defines the benchmark:
its ``command``, ``workloads``, ``run_seconds`` and ``end_to_end`` metrics.
Each workload, then each (dim, bits, mode) of MICRO_SHAPES, runs PAIRS pairs:
pair i runs one command on both revs, the parent first in even pairs and the
head first in odd ones, so that drift over time does not land on one side
only. A workload runs ``<command> --workload <w> --seed <100*pr + i>
--seconds <run_seconds> --trace 0``; a micro shape runs MICRO_CODE, which
takes no seed and times public calls in-process with ``timeit``, per vector:
encode_vector, decode_payload and estimate_inner_product, each on one vector
and on a batch of MICRO_ROWS, each row the minimum over 5 repeats of as many
calls as the first call says take 0.2 s. No micro row reads or writes a file;
the CLI over a vector file is timed by the workloads' store and load phases.
The last line, one JSON object, of every run is kept, and the ``env:`` line
of each rev's first workload run. For each workload or shape and each metric
the file then records the parent's median and quartiles, the head's median
and the pairs the head wins by the metric's ``better`` (a tie counts for
neither side). A workload's metrics are the end-to-end ones, and each also
records whether the head's median is worse than the parent's by more than
the metric's relative ``bound``; a shape's timings, lower-is-better, have none.
Tier-1 then runs once per rev, and its summary line and the
``--durations=10`` table that pyproject.toml asks for are kept. The file also
records ``src_lines``, the line count of each ``src/hadaquant/*.py`` file of
each rev and their total, as ``wc -l`` counts them. Every command runs under
the interpreter that runs this script, which takes the place of ``python3``.
The file is written to BENCH_<pr>.json at the repository root. Standard
library only; it imports nothing from the benchmark or the package
(MICRO_CODE, which does, runs in a child process of each rev). On a 2-CPU
host the workloads take about 40 minutes and the micro shapes about 21 more
(about 61 s per side for the five shapes, one run each).
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(.+)$")  # node ids may hold spaces

# The micro table's (dim, bits, mode) shapes and its batch size.
MICRO_SHAPES = [(64, 3, "unbiased"), (1024, 6, "unbiased"), (4096, 4, "unbiased"),
                (64, 16, "unbiased"), (4096, 4, "biased")]
MICRO_ROWS = 1000
# Run as ``python -c MICRO_CODE dim bits mode rows`` in a rev's checkout, whose
# src/ it puts first on sys.path; prints one line shaped as an hqbench result,
# {"metrics": {name: {"value": microseconds per vector}}}. Batch encode_vector
# exists from commit 72a8fea on, batch decode_payload from cf1c61c and the
# batch scorer from ed82038.
MICRO_CODE = """
import json, sys, timeit
import numpy as np
sys.path.insert(0, "src")
from hadaquant import cli, decode, estimate_inner_product
from hadaquant.vquant import QuantConfig


def measure(dim, bits, mode, rows, repeat=5):
    cfg = QuantConfig(dim, bits, mode)
    x = np.random.default_rng(dim * 100 + bits).standard_normal((rows, dim))
    payloads = cli.encode_vector(x, cfg, 1, range(rows))
    # hqbench's score phase: codes decoded from the payloads, one query each
    codes = [decode(payload) for payload in payloads]
    queries = np.random.default_rng(dim * 100 + bits + 1).standard_normal((rows, dim))
    calls = {
        "encode_vector": (lambda: cli.encode_vector(x[0], cfg, 1, 0),
                          lambda: cli.encode_vector(x, cfg, 1, range(rows))),
        "decode_payload": (lambda: cli.decode_payload(payloads[0]),
                           lambda: cli.decode_payload(payloads)),
        "estimate_inner_product": (lambda: estimate_inner_product(codes[0], queries[0]),
                                   lambda: estimate_inner_product(codes, queries)),
    }
    out = {}
    for name, (one, batch) in calls.items():
        for key, call, n in ((f"{name}_one_us", one, 1),
                             (f"{name}_{rows}_rows_us_per_vector", batch, rows)):
            timer = timeit.Timer(call)
            number = max(1, int(0.2 / timer.timeit(1)))
            out[key] = 1e6 * min(timer.repeat(repeat, number)) / number / n
    return out


if __name__ == "__main__":
    dim, bits, mode, rows = sys.argv[1:]
    out = measure(int(dim), int(bits), mode, int(rows))
    print(json.dumps({"metrics": {name: {"value": us} for name, us in out.items()}}))
"""


def clone(rev: str, into: Path) -> Path:
    subprocess.run(["git", "clone", "-q", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "-q", rev], check=True)
    return into


def bench_commands(benchmark: dict, seed: int | str) -> dict[str, list[str]]:
    """The command of each workload of benchmark, BENCHMARK.json's object, at seed.

    A str seed is a placeholder, for the commands the record describes.
    """
    program = [sys.executable, *benchmark["command"][1:]]
    return {w["name"]: [*program, "--workload", w["name"], "--seed", str(seed),
                        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
            for w in benchmark["workloads"]}


def pair_commands(benchmark: dict, seed: int) -> dict[str, list[str]]:
    """Every command run as PAIRS pairs: each workload's at seed, then each micro shape's."""
    return {**bench_commands(benchmark, seed), **micro_commands()}


def run_bench(checkout: Path, cmd: list[str]) -> tuple[dict | None, dict]:
    """The ``env:`` line (None without one) and the last line, both JSON, of cmd's output."""
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    env = next((json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")),
               None)
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


def src_lines(checkout: Path) -> dict:
    """The newline count (as wc -l) of each src/hadaquant/*.py file of checkout, and the total."""
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((checkout / "src" / "hadaquant").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def micro_commands() -> dict[str, list[str]]:
    """The micro table's command per shape, keyed "dim,bits,mode"."""
    return {f"{dim},{bits},{mode}": [sys.executable, "-c", MICRO_CODE, str(dim), str(bits), mode,
                                     str(MICRO_ROWS)]
            for dim, bits, mode in MICRO_SHAPES}


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i in run order: the parent first in even pairs."""
    return ("parent", "head") if i % 2 == 0 else ("head", "parent")


def summarize(pairs: list[dict], end_to_end: list[dict] | None = None) -> dict:
    """Per-metric verdicts over the pairs of one workload or micro shape.

    Each pair is ``{"parent": result, "head": result}``, a result being the
    last JSON line of a run; end_to_end is BENCHMARK.json's list of metrics,
    each with ``name``, ``better`` ("higher" or "lower") and a relative
    ``bound``. Without it, every metric of the results is a micro timing:
    lower is better, and with no bound there is no ``worse_than_bound``.
    Quartiles are statistics.quantiles' inclusive ones.
    """
    out = {}
    if end_to_end is None:
        end_to_end = [{"name": name, "better": "lower"} for name in pairs[0]["parent"]["metrics"]]
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        before, after = ([p[side]["metrics"][name]["value"] for p in pairs]
                         for side in ("parent", "head"))
        parent, head = statistics.median(before), statistics.median(after)
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        out[name] = {
            "parent_median": parent,
            "parent_quartiles": [q1, q3],
            "head_median": head,
            "head_wins": sum(sign * (h - p) > 0 for p, h in zip(before, after)),
            "pairs": len(pairs),
        }
        if "bound" in metric:
            out[name]["worse_than_bound"] = sign * (head - parent) < -metric["bound"] * abs(parent)
    return out


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
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    env, runs, tier1 = {}, {name: [] for name in pair_commands(benchmark, 0)}, {}
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        checkouts = {side: clone(rev, Path(tmp) / side) for side, rev in revs.items()}
        lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}
        for name in runs:
            for i in range(PAIRS):
                seed, pair = 100 * pr + i, {}
                cmd = pair_commands(benchmark, seed)[name]
                for side in pair_order(i):
                    print(f"{name} pair {i} {side} ...", file=sys.stderr, flush=True)
                    side_env, pair[side] = run_bench(checkouts[side], cmd)
                    if side_env is not None:
                        env.setdefault(side, side_env)
                runs[name].append({"seed": seed, "first": pair_order(i)[0], **pair})
        for side, checkout in checkouts.items():
            print(f"{side} tier-1 ...", file=sys.stderr, flush=True)
            tier1[side] = run_tier1(checkout)
    record = {
        "what": "hqbench end-to-end metrics (last JSON line of hqbench/run.py) and micro "
                f"timings over {PAIRS} pairs per workload or shape, their per-metric summary, "
                "and tier-1 pytest durations, at the parent commit and at the change",
        "commands": {
            "bench": [" ".join(["python", *cmd[1:]])
                      for cmd in bench_commands(benchmark, f"<{100 * pr}+i>").values()],
            "tier1": f"PYTHONPATH=src python {' '.join(TIER1)}  (pyproject adds --durations=10)",
        },
        "machine": {"cpu_model": cpu_model(), "note": f"{os.cpu_count()} CPUs"},
        "revs": revs,
        "env": env,
        "summary": {name: summarize(pairs, None if name in micro_commands() else end_to_end)
                    for name, pairs in runs.items()},
        "runs": runs,
        "src_lines": lines,
        "micro": "summary and runs of a \"dim,bits,mode\" hold MICRO_CODE's timings of the "
                 "calls their names give: a timeit minimum over 5 repeats, in us per vector",
        "tier1": tier1,
    }
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
