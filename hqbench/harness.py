"""hadaquant benchmark: five phases in cycles on one seeded workload.

A cycle runs ``io_rounds`` io rounds and then one verify pass, all at the
workload's fixed sizes. An io round runs, in this order:

* store  -- in-process ``hadaquant quantize`` of a generated vector file;
* load   -- in-process ``hadaquant dequantize`` of the stored payloads;
* score  -- ``estimate_inner_product`` on codes decoded from those payloads;
* codec  -- ``vector_quant`` -> ``vector_dequant`` round trips (no wire format).

The verify pass runs the ``bench`` mse, inner-product and rate suites at fixed
trials, plus ``unbiased_suite`` on workloads that set ``unbiased_trials``.

Interleaving short phases makes a slow period of a shared machine hit every
phase alike and gives many samples per run. Cycle 0 warms caches and runs the
full output checks; timings are medians over the samples of later cycles.
End-to-end metrics are measured with tracing off; ``--trace 1`` alternates
traced and untraced cycles and reports per-layer numbers instead.
"""

import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import hadaquant
from hadaquant import bench, cli
from hadaquant.vquant import QuantConfig

import tracer

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    bits: int
    vectors: int  # stored, loaded and scored per io round, each code by its own query
    codec: int  # vector_quant -> vector_dequant round trips per io round
    io_rounds: int  # io rounds per cycle; a cycle ends with one verify pass
    mse_trials: int  # per verify pass, for each suite
    ip_trials: int
    rate_trials: int
    unbiased_trials: int = 0  # 0 skips unbiased_suite
    min_cycles: int = 5  # distinct suite seeds averaged into the quality metrics


# Why each workload exists is recorded next to its name in BENCHMARK.json.
# Short io rounds give many timing samples per run, so their medians hold
# still on a shared machine. ip_trials is the largest trial count because
# the inner-product statistic spreads most (relative sd ~ sqrt(2 / trials)).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-large", dim=4096, bits=4, vectors=30, codec=40,
                 io_rounds=5, mse_trials=20, ip_trials=180, rate_trials=20,
                 unbiased_trials=100),
        Workload("fine-grid", dim=64, bits=16, vectors=8, codec=8,
                 io_rounds=4, mse_trials=12, ip_trials=96, rate_trials=6),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "store_vps": "vectors/s",
    "load_vps": "vectors/s",
    "score_per_s": "scores/s",
    "codec_vps": "round-trips/s",
    "verify_s": "s",
    "distortion_4b": "1",
    "ip_error_4b": "1",
    "body_bits_per_coord": "bits/coord",
    "peak_rss_mb": "MiB",
    "pass_ratio": "passed/attempted",
}

# calls_per_vec divides a function's calls in one phase by that phase's
# operations: vectors stored, vectors loaded, scores, or codec round trips.
HOME_PHASE = {
    **dict.fromkeys(
        (
            "transform.stream_rng", "transform.sample_signs", "transform.apply_hd",
            "transform.apply_hd_inverse", "codebook.build_codebook", "codebook.quantize_scalar",
            "vquant.derive_base_signs", "vquant.derive_dither", "residual.residual_quant",
            "residual.derive_residual_signs", "twostage.quantize_two_stage",
            "twostage.project_unit_ball", "bitstream.encode", "cli.read_vectors",
            "cli.encode_vector", "cli.cmd_quantize",
        ),
        "store",
    ),
    **dict.fromkeys(
        (
            "twostage.dequantize_two_stage", "residual.residual_dequant", "bitstream.decode",
            "cli.decode_payload", "cli.write_vectors", "cli.cmd_dequantize",
        ),
        "load",
    ),
    "twostage.estimate_inner_product": "score",
    "vquant.vector_quant": "codec",
    "vquant.vector_dequant": "codec",
}
PER_SCORE = ("transform.stream_rng", "codebook.build_codebook", "transform.apply_hd_inverse")
# These run only inside unbiased_suite, which only some workloads run, so a
# per-call time would not exist on every workload; their self time still
# counts in the bench and oracle shares and is printed in the trace table.
NO_SELF_US = ("bench.unbiased_suite", "bench.dither_average_error", "oracle.u_average")


PER_LAYER_UNITS = {
    **{f"{f}.self_us": "us" for f in tracer.FUNCTIONS if f not in NO_SELF_US},
    **{f"{f}.calls_per_vec": "count" for f in HOME_PHASE},
    **{f"{f}.calls_per_score": "count" for f in PER_SCORE},
    **{f"{layer}.self_share": "1" for layer in tracer.LAYERS},
    "trace_overhead_s": "s",
}


# --- inputs, files and environment -----------------------------------------


def make_inputs(w: Workload, seed: int):
    """Vectors with varied norms and their queries, all from ``seed``."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((w.vectors, w.dim)) * rng.uniform(0.5, 2.0, (w.vectors, 1))
    queries = rng.standard_normal((w.vectors, w.dim))
    return vectors, queries


def _git_rev(root: Path) -> str:
    try:
        # The ceiling stops git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _filesystem(path: Path) -> str:
    path = str(path.resolve())
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs = mount, f"{kind} at {mount}"
    except OSError:
        pass
    return fs


def environment(root: Path, workdir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hadaquant": hadaquant.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "HQ_THREADS": os.environ.get("HQ_THREADS"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_rev": _git_rev(root),
        "workdir_fs": _filesystem(workdir),
        "platform": platform.platform(),
    }


# --- one run ---------------------------------------------------------------


_SETUP_CODE = """
import sys
import numpy as np
from hadaquant import cli
from hadaquant.vquant import QuantConfig
dim, bits, seed = map(int, sys.argv[1:4])
x = np.frombuffer(sys.stdin.buffer.read(), dtype="<f8")
sys.stdout.write(cli.encode_vector(x, QuantConfig(dim=dim, bits=bits), seed, 0).hex())
"""


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(what)


@contextlib.contextmanager
def guarded(tally: Tally, what: str, count: int):
    """Count a phase's operations as failed if it raises, and keep going."""
    try:
        yield
    except Exception:  # a benchmark reports a failed phase instead of dying
        traceback.print_exc(file=sys.stderr)
        tally.check(False, f"{what} raised", count)


def _finite(a, shape) -> bool:
    a = np.asarray(a)
    return a.shape == shape and bool(np.all(np.isfinite(a)))


class Runner:
    """Holds one workload's inputs, reference outputs and measurements."""

    def __init__(self, w: Workload, seed: int, workdir: Path, src: Path):
        self.w, self.seed, self.workdir, self.src = w, seed, workdir, src
        self.cfg = QuantConfig(dim=w.dim, bits=w.bits)
        self.vectors, self.queries = make_inputs(w, seed)
        self.vec_path = workdir / "vectors.vec"
        cli.write_vectors(self.vec_path, self.vectors)
        self.codes_dir = workdir / "codes"
        self.decoded_path = workdir / "decoded.vec"
        self.tally = Tally()
        self.ref = None  # first round's payloads, decoded file bytes, codes and scores
        self.times = {p: [] for p in ("setup", "store", "load", "score", "codec", "verify")}
        self.rows = []  # (cycle, ExperimentRow) for the distinct suite seeds
        self.body_bits = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.groups = 0  # io rounds and verify passes run so far

    def next_cpu(self):
        """Pin this process to the next allowed CPU in turn.

        Migrating in the middle of a phase made the file-writing store phase
        vary by about 10% between runs; staying on one CPU for a whole run
        instead ties the run to that CPU's neighbours. Rotating between
        phase groups avoids both.
        """
        os.sched_setaffinity(0, {self.cpus[self.groups % len(self.cpus)]})
        self.groups += 1

    # -- set-up: a fresh interpreter encoding its first payload --

    def measure_setup(self) -> float:
        x = self.vectors[0]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        args = [sys.executable, "-c", _SETUP_CODE, str(self.w.dim), str(self.w.bits), str(self.seed)]
        start = time.perf_counter()
        proc = subprocess.run(args, input=x.astype("<f8").tobytes(), capture_output=True,
                              env=env, cwd=self.workdir, timeout=120)
        elapsed = time.perf_counter() - start
        expected = cli.encode_vector(x, self.cfg, self.seed, 0).hex()
        ok = proc.returncode == 0 and proc.stdout.decode() == expected
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
        self.tally.check(ok, "set-up process did not reproduce the first payload")
        return elapsed

    # -- one cycle: io rounds (store, load, score, codec), then one verify pass --

    def cycle(self, c: int, span=lambda name: contextlib.nullcontext()) -> dict:
        times = {p: [] for p in ("store", "load", "score", "codec", "verify")}
        for i in range(self.w.io_rounds):
            for phase, t in self.io_round(span).items():
                times[phase].append(t)
        elapsed = self.verify(c, span)
        if elapsed is not None:
            times["verify"].append(elapsed)
        return times

    def io_round(self, span) -> dict:
        self.next_cpu()
        w, cfg, seed, tally = self.w, self.cfg, self.seed, self.tally
        clock = time.perf_counter
        times = {}
        codes_dir, decoded_path = self.codes_dir, self.decoded_path
        quiet = io.StringIO()

        with guarded(tally, "store", w.vectors), span("phase.store"):
            start = clock()
            with contextlib.redirect_stdout(quiet):
                rc = cli.main(["quantize", "--input", str(self.vec_path), "--output",
                               str(codes_dir), "--bits", str(w.bits), "--seed", str(seed)])
            times["store"] = clock() - start
            tally.check(rc == 0, "quantize exited nonzero", w.vectors)

        with guarded(tally, "load", w.vectors), span("phase.load"):
            start = clock()
            with contextlib.redirect_stdout(quiet):
                rc = cli.main(["dequantize", "--input", str(codes_dir), "--output",
                               str(decoded_path)])
            times["load"] = clock() - start
            tally.check(rc == 0, "dequantize exited nonzero", w.vectors)

        with guarded(tally, "check stored payloads", w.vectors):
            self.check_store_load()
        # Removed before the next store, untimed, so that every round writes
        # fresh files and none lives long enough to be written back to disk.
        # The directory stays, so no disk block is freed and allocated again.
        for path in codes_dir.glob("*.hq"):
            path.unlink()
        decoded_path.unlink(missing_ok=True)

        scores = None
        with guarded(tally, "score", w.vectors), span("phase.score"):
            codes = self.ref["codes"]
            estimate = hadaquant.estimate_inner_product
            start = clock()
            scores = [estimate(c, q) for c, q in zip(codes, self.queries)]
            times["score"] = clock() - start
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64)
            tally.check(_finite(scores, self.ref.setdefault("scores", scores).shape),
                        "non-finite or misshapen scores", w.vectors)
            tally.check(np.array_equal(scores, self.ref["scores"]),
                        "scores differ from the first round")

        with guarded(tally, "codec", w.codec), span("phase.codec"):
            n = w.vectors
            quant, dequant = hadaquant.vector_quant, hadaquant.vector_dequant
            start = clock()
            out = [dequant(quant(self.vectors[i % n], cfg, seed, i), cfg) for i in range(w.codec)]
            times["codec"] = clock() - start
            bad = sum(not _finite(o, (w.dim,)) for o in out)
            tally.check(bad == 0, "non-finite or misshapen codec output", w.codec)
        return times

    def verify(self, c: int, span) -> float:
        """Suites at fixed trials; cycle c uses suite seed number c mod min_cycles."""
        self.next_cpu()
        w = self.w
        suite_seed = (self.seed << 8) + c % w.min_cycles
        elapsed = None
        with guarded(self.tally, "verify", 2), span("phase.verify"):
            start = time.perf_counter()
            rows = bench.mse_suite(w.dim, w.bits, w.mse_trials, suite_seed)
            rows += bench.inner_product_suite(w.dim, w.bits, w.ip_trials, suite_seed)
            rows += bench.rate_suite(w.dim, w.bits, w.rate_trials, suite_seed)
            if w.unbiased_trials:
                rows += bench.unbiased_suite(w.dim, w.bits, w.unbiased_trials, suite_seed)
            elapsed = time.perf_counter() - start
            by_name = {row.experiment: row for row in rows}
            self.tally.check(by_name["rate/max-body-bits"].passed, "rate row over budget")
            self.tally.check(by_name["inner-product/error"].passed,
                             "inner-product row over ceiling")
            if c < w.min_cycles:
                self.rows += [(c, row) for row in rows]
        return elapsed

    def check_store_load(self):
        w, tally = self.w, self.tally
        payloads = [p.read_bytes() for p in sorted(self.codes_dir.glob("*.hq"))]
        tally.check(len(payloads) == w.vectors, "wrong number of stored payloads", w.vectors)
        decoded_bytes = self.decoded_path.read_bytes()
        if self.ref is not None:
            for p, q in zip(payloads, self.ref["payloads"]):
                tally.check(p == q, "payload differs from the first round")
            tally.check(decoded_bytes == self.ref["decoded"], "dequantize output differs")
            return
        decoded = cli.read_vectors(self.decoded_path)
        codes, body = [], []
        for i, p in enumerate(payloads):
            code = hadaquant.decode(p)
            codes.append(code)
            tally.check(hadaquant.encode(code) == p, f"payload {i} does not re-encode")
            row = cli.decode_payload(p)
            tally.check(_finite(row, (w.dim,)) and np.array_equal(row, decoded[i]),
                        f"dequantize row {i} differs from decode_payload")
            report = hadaquant.rate_report(code)
            body.append((report["total_bits"] - report["header_bits"]) / self.cfg.padded_dim)
        self.body_bits = float(np.mean(body))
        self.ref = {"payloads": payloads, "decoded": decoded_bytes, "codes": codes}

    # -- metrics --

    def end_to_end(self) -> dict:
        """Metrics from the samples taken; also printed when checks failed.

        A phase that raised on every round has no samples, and a broken
        suite can measure NaN; such a metric is left out.
        """
        w = self.w

        def median(samples):
            return statistics.median(samples) if samples else None

        def rate(phase, ops):
            return median([ops / t for t in self.times[phase]])

        def quality(experiment):
            measured = [row.measured for _, row in self.rows if row.experiment == experiment]
            return float(np.mean(measured)) if measured else None

        values = {
            "setup_s": median(self.times["setup"]),
            "store_vps": rate("store", w.vectors),
            "load_vps": rate("load", w.vectors),
            "score_per_s": rate("score", w.vectors),
            "codec_vps": rate("codec", w.codec),
            "verify_s": median(self.times["verify"]),
            "distortion_4b": quality("mse/random-unit"),
            "ip_error_4b": quality("inner-product/error"),
            "body_bits_per_coord": self.body_bits,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (self.tally.attempted - self.tally.failed) / self.tally.attempted,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in values.items() if v is not None and np.isfinite(v)}


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    """Cycles until ``seconds`` have passed; cycle 0 is warm-up and not timed.

    Each cycle starts with one set-up measurement; the cycle-0 one runs with
    cold file caches and is checked but not timed either.
    """
    start = time.perf_counter()
    c = 0
    while c < runner.w.min_cycles or time.perf_counter() - start < seconds:
        setup = runner.measure_setup()
        times = runner.cycle(c)
        times["setup"] = [setup]
        if c > 0:
            for phase, ts in times.items():
                runner.times[phase] += ts
        c += 1
    print(f"cycles: {c} (cycle 0 is warm-up); samples per phase:")
    for phase, ts in runner.times.items():
        print(f"  {phase:6s} {len(ts):3d} samples, s: " + " ".join(f"{t:.4f}" for t in ts))
    return runner.end_to_end()


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Alternate traced and untraced cycles after a warm-up; per-layer metrics."""
    w = runner.w
    tr = tracer.Tracer()
    walls = {True: [], False: []}
    start = time.perf_counter()
    runner.cycle(0)
    c = 1
    while not walls[True] or not walls[False] or time.perf_counter() - start < seconds:
        traced = c % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tr.installed():
                runner.cycle(c, span=tr.span)
        else:
            runner.cycle(c)
        walls[traced].append(time.perf_counter() - t0)
        c += 1

    summary = tr.summarize()
    traced_wall = sum(walls[True])
    rounds = len(walls[True]) * w.io_rounds
    ops = {"store": w.vectors, "load": w.vectors, "score": w.vectors, "codec": w.codec}
    calls, self_s, layer_s = {}, {}, dict.fromkeys(tracer.LAYERS, 0.0)
    for (fn, phase), (n, s) in summary.items():
        calls[fn] = calls.get(fn, 0) + n
        self_s[fn] = self_s.get(fn, 0.0) + s
        layer_s[fn.split(".")[0]] += s

    values = {}
    for fn in tracer.FUNCTIONS:
        if fn not in NO_SELF_US:
            values[f"{fn}.self_us"] = 1e6 * self_s.get(fn, 0.0) / max(calls.get(fn, 0), 1)
    for fn, phase in HOME_PHASE.items():
        values[f"{fn}.calls_per_vec"] = summary.get((fn, phase), [0])[0] / (ops[phase] * rounds)
    for fn in PER_SCORE:
        values[f"{fn}.calls_per_score"] = summary.get((fn, "score"), [0])[0] / (ops["score"] * rounds)
    for layer, s in layer_s.items():
        values[f"{layer}.self_share"] = s / traced_wall
    values["trace_overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])

    print(f"traced cycles: {len(walls[True])}, untraced cycles: {len(walls[False])}; "
          f"wall per cycle traced {statistics.median(walls[True]):.4f} s, "
          f"untraced {statistics.median(walls[False]):.4f} s")
    print(f"{'function':40s} {'calls':>9s} {'self_us':>11s} {'self_share':>10s}  calls by phase")
    for fn in tracer.FUNCTIONS:
        by_phase = {p: n for (f, p), (n, _) in summary.items() if f == fn}
        n = calls.get(fn, 0)
        print(f"{fn:40s} {n:9d} {1e6 * self_s.get(fn, 0.0) / max(n, 1):11.2f} "
              f"{self_s.get(fn, 0.0) / traced_wall:10.4f}  {by_phase}")
    for layer, s in layer_s.items():
        print(f"layer {layer:12s} self_share {s / traced_wall:.4f}")
    print(f"unattributed (benchmark code and checks) share "
          f"{1 - sum(layer_s.values()) / traced_wall:.4f}")

    trace_path.write_text(json.dumps({
        "workload": dataclasses.asdict(w),
        "seed": runner.seed,
        "traced_cycle_walls": walls[True],
        "untraced_cycle_walls": walls[False],
        "spans": tr.to_json(),
    }))
    print(f"spans: {len(tr.names)} written to {trace_path}")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path, root: Path) -> dict:
    """Run one workload; returns the result object the benchmark prints last."""
    workdir.mkdir(parents=True, exist_ok=True)
    print("env: " + json.dumps(environment(root, workdir), sort_keys=True))
    print("workload: " + json.dumps(dataclasses.asdict(w)))
    runner = Runner(w, seed, workdir, root / "src")
    try:
        if trace:
            metrics = run_traced(runner, seconds, workdir / f"trace-{w.name}-seed{seed}.json")
        else:
            metrics = run_end_to_end(runner, seconds)
    finally:
        os.sched_setaffinity(0, runner.cpus)
        # Remove the inputs and what a failed round left; keep the span trace.
        for path in workdir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif not path.name.startswith("trace-"):
                path.unlink()
        if not any(workdir.iterdir()):
            workdir.rmdir()
    # Gate verdicts as the suites return them; only the rate and
    # inner-product gates count as failures (see Runner.verify).
    for c, row in runner.rows:
        print(f"row c{c} {row.experiment} dim={row.dim} bits={row.bits} trials={row.trials} "
              f"measured={row.measured!r} reference={row.reference!r} "
              f"{'PASS' if row.passed else 'FAIL'}")
    tally = runner.tally
    print(f"fail_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1)} failed/attempted")
    for note in tally.notes:
        print(f"failure: {note}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
