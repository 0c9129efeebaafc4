"""Command-line harness: quantize/dequantize vector files, run benchmark suites.

Vector files are little-endian float64 with a 12-byte header (magic "HQVF",
u32 count, u32 dim); ``--text`` switches to one whitespace-separated vector
per line. Encoded vectors are written one ``.hq`` payload per input vector
with a sequential vec_counter.

Exit codes: 0 success / all rows pass, 1 failure, 2 usage error.
"""

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

from . import bench, bitstream
from .codebook import BIASED, UNBIASED
from .twostage import dequantize_two_stage, quantize_two_stage
from .vquant import QuantConfig

VEC_MAGIC = b"HQVF"
_VEC_HEADER = struct.Struct("<4sII")

# suite: (function, the flags it reads with their defaults). Every suite also
# reads --seed and --csv; any other flag is a usage error.
_SUITES = {
    "mse": (bench.mse_suite, {"dim": 1024, "bits": 6, "trials": 20000, "mode": UNBIASED}),
    "unbiased": (bench.unbiased_suite, {"dim": 64, "bits": 3, "trials": 100000}),
    "inner-product": (
        bench.inner_product_suite,
        {"dim": 512, "bits": 4, "trials": 10000, "mode": UNBIASED},
    ),
    "rate": (bench.rate_suite, {"dim": 4096, "bits": 4, "trials": 1000, "mode": UNBIASED}),
    "oracle": (bench.oracle_suite, {}),
}


def write_vectors(path, vectors: np.ndarray, text: bool = False):
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if text:
        with open(path, "w") as fh:
            for row in vectors:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(_VEC_HEADER.pack(VEC_MAGIC, vectors.shape[0], vectors.shape[1]))
        fh.write(vectors.astype("<f8").tobytes())


def read_vectors(path, text: bool = False) -> np.ndarray:
    if text:
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(v) for v in line.split()])
        if not rows:
            raise ValueError(f"{path}: no vectors found")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"{path}: inconsistent vector lengths {sorted(widths)}")
        return np.asarray(rows, dtype=np.float64)
    raw = Path(path).read_bytes()
    if len(raw) < _VEC_HEADER.size:
        raise ValueError(f"{path}: shorter than the vector-file header")
    magic, count, dim = _VEC_HEADER.unpack_from(raw)
    if magic != VEC_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if count < 1 or dim < 1:
        raise ValueError(f"{path}: empty vector file")
    expected = _VEC_HEADER.size + 8 * count * dim
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f8", offset=_VEC_HEADER.size).reshape(count, dim).copy()


def encode_vector(x: np.ndarray, config: QuantConfig, seed: int, vec_counter: int) -> bytes:
    """Two-stage encode of a finite vector into one .hq payload."""
    return bitstream.encode(quantize_two_stage(x, config, seed, vec_counter))


def decode_payload(data: bytes) -> np.ndarray:
    """Decode one .hq payload to a vector."""
    return dequantize_two_stage(bitstream.decode(data))


def cmd_quantize(args) -> int:
    vectors = read_vectors(args.input, text=args.text)
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"{args.input}: non-finite values")
    config = QuantConfig(dim=vectors.shape[1], bits=args.bits, mode=args.mode)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for counter, x in enumerate(vectors):
        payload = encode_vector(x, config, args.seed, counter)
        (out_dir / f"vec_{counter:05d}.hq").write_bytes(payload)
    print(f"wrote {vectors.shape[0]} .hq payloads to {out_dir}")
    return 0


def cmd_dequantize(args) -> int:
    in_dir = Path(args.input)
    paths = sorted(in_dir.glob("*.hq"))
    if not paths:
        raise ValueError(f"{in_dir}: no .hq payloads")
    decoded = []
    for path in paths:
        payload = path.read_bytes()
        row = decode_payload(payload)  # validates the header read next
        decoded.append((bitstream.HEADER.unpack_from(payload)[7], row))
    # Rows follow each header's vec_counter (field 7), not the file names,
    # which sort "vec_100000" before "vec_10001"; the stable sort keeps
    # file-name order among equal counters.
    decoded.sort(key=lambda entry: entry[0])
    rows = [row for _, row in decoded]
    widths = {r.shape[0] for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{in_dir}: payloads decode to mixed dimensions {sorted(widths)}")
    write_vectors(args.output, np.vstack(rows), text=args.text)
    print(f"decoded {len(rows)} vectors to {args.output}")
    return 0


def cmd_bench(args) -> int:
    suite, defaults = _SUITES[args.suite]
    # A flag is given unless absent: an explicit 0 is kept, so that the
    # suite rejects it.
    given = {
        flag: getattr(args, flag)
        for flag in ("dim", "bits", "trials", "mode")
        if getattr(args, flag) is not None
    }
    unread = [f"--{flag}" for flag in given if flag not in defaults]
    if unread:
        args.usage_error(f"suite {args.suite} does not read {', '.join(unread)}")
    rows = suite(seed=args.seed, **{**defaults, **given})
    for r in rows:
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"{r.experiment}: measured={r.measured:.10g} reference={r.reference:.10g} "
            f"{verdict} ({r.wall_time:.2f}s)"
        )
    if args.csv:
        Path(args.csv).write_text(bench.rows_to_csv(rows))
        print(f"csv written to {args.csv}")
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hadaquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="encode a vector file into .hq payloads")
    q.add_argument("--input", required=True)
    q.add_argument("--output", required=True, help="output directory for .hq payloads")
    q.add_argument("--bits", type=int, required=True)
    q.add_argument("--mode", choices=[BIASED, UNBIASED], default=UNBIASED)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--text", action="store_true", help="input is one vector per line")
    q.set_defaults(fn=cmd_quantize)

    d = sub.add_parser("dequantize", help="decode a directory of .hq payloads")
    d.add_argument("--input", required=True, help="directory of .hq payloads")
    d.add_argument("--output", required=True)
    d.add_argument("--text", action="store_true", help="write one vector per line")
    d.set_defaults(fn=cmd_dequantize)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", choices=sorted(_SUITES))
    b.add_argument("--dim", type=int)
    b.add_argument("--bits", type=int)
    b.add_argument("--trials", type=int)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--mode", choices=[BIASED, UNBIASED])
    b.add_argument("--csv", help="write rows to this CSV path")
    b.set_defaults(fn=cmd_bench, usage_error=b.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, bitstream.WireFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
