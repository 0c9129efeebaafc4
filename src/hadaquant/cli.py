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
import time
from pathlib import Path

import numpy as np

from . import bench, bitstream
from .codebook import MODES, UNBIASED
from .twostage import dequantize_two_stage, quantize_two_stage
from .vquant import QuantConfig, RowError, _as_rows, _each_row

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
    """Write one vector, or a 2-D array of rows, neither empty, in read_vectors' format."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim not in (1, 2) or 0 in vectors.shape:
        raise ValueError(f"{path}: need a vector or a 2-D array, neither empty, not shape "
                         f"{vectors.shape}")
    vectors = np.atleast_2d(vectors)
    if text:
        with open(path, "w") as fh:
            for row in vectors:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(_VEC_HEADER.pack(VEC_MAGIC, vectors.shape[0], vectors.shape[1]))
        # the array's own buffer: no copy of a C-ordered little-endian matrix
        fh.write(np.ascontiguousarray(vectors, dtype="<f8"))


def read_vectors(path, text: bool = False) -> np.ndarray:
    if text:
        rows = []
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                try:
                    row = [float(v) for v in line.split()]
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                if row:
                    rows.append(row)
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


def encode_vector(x: np.ndarray, config: QuantConfig, seed: int, vec_counter):
    """Two-stage encode of a finite vector into one .hq payload.

    An (n, dim) array of rows with a sequence of n counters gives the list
    of their n payloads, as quantize_two_stage gives codes.
    """
    codes = quantize_two_stage(x, config, seed, vec_counter)
    if isinstance(codes, list):
        return [bitstream.encode(code) for code in codes]
    return bitstream.encode(codes)


def decode_payload(data) -> np.ndarray:
    """Decode one .hq payload (bytes, bytearray or memoryview) to a vector.

    A list or tuple of n payloads of one dim decodes to an (n, dim) array in
    one batch decode, each row equal to its own payload's decode; a ValueError
    raised for a payload names its row: "row 1: ..." (a RowError). An empty
    one holds no dim, so it decodes to a (0, 0) array.
    """
    payloads, batch = _as_rows(data)
    codes = _each_row(payloads, batch, bitstream.decode)
    return dequantize_two_stage(codes if batch else codes[0])


def _header_counter(payload: bytes) -> int:
    # The vec_counter of a payload's header (field 7), read before the payload
    # is judged; 0 for one too short to hold a header, which its decode rejects.
    return bitstream.HEADER.unpack_from(payload)[7] if len(payload) >= bitstream.HEADER.size else 0


def cmd_quantize(args) -> int:
    out_dir = Path(args.output)
    # Payloads of an earlier run would be decoded along with this one's.
    if any(out_dir.glob("*.hq")):
        raise ValueError(f"{out_dir}: already holds .hq payloads")
    vectors = read_vectors(args.input, text=args.text)
    config = QuantConfig(dim=vectors.shape[1], bits=args.bits, mode=args.mode)
    # Every row is encoded, and so checked, before the first file is written;
    # an error names its row.
    payloads = encode_vector(vectors, config, args.seed, range(len(vectors)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for counter, payload in enumerate(payloads):
        (out_dir / f"vec_{counter:05d}.hq").write_bytes(payload)
    print(f"wrote {vectors.shape[0]} .hq payloads to {out_dir}")
    return 0


def cmd_dequantize(args) -> int:
    in_dir = Path(args.input)
    paths = sorted(in_dir.glob("*.hq"))
    if not paths:
        raise ValueError(f"{in_dir}: no .hq payloads")
    payloads = [path.read_bytes() for path in paths]
    # Rows follow each header's vec_counter, not the file names, which sort
    # "vec_100000" before "vec_10001"; the stable sort keeps file-name order
    # among equal counters. The payloads go in that order into the one batch
    # decode, whose rows are then the output, and a failing row names its file.
    order = sorted(range(len(paths)), key=lambda i: _header_counter(payloads[i]))
    try:
        decoded = decode_payload([payloads[i] for i in order])
    except RowError as exc:
        raise ValueError(f"{paths[order[exc.row]]}: {exc.error}") from exc
    except ValueError as exc:
        raise ValueError(f"{in_dir}: {exc}") from exc
    write_vectors(args.output, decoded, text=args.text)
    print(f"decoded {len(decoded)} vectors to {args.output}")
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
    start = time.perf_counter()
    rows = suite(seed=args.seed, **{**defaults, **given})
    wall = time.perf_counter() - start
    for r in rows:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.experiment}: measured={r.measured:.10g} reference={r.reference:.10g} {verdict}")
    print(f"{args.suite}: {len(rows)} rows in {wall:.2f}s")
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
    q.add_argument("--mode", choices=MODES, default=UNBIASED)
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
    b.add_argument("--mode", choices=MODES)
    b.add_argument("--csv", help="write rows to this CSV path")
    b.set_defaults(fn=cmd_bench, usage_error=b.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
