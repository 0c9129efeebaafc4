import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hadaquant import bitstream
from hadaquant.cli import (
    decode_payload,
    encode_vector,
    main,
    read_vectors,
    write_vectors,
)
from hadaquant.codebook import build_codebook
from hadaquant.transform import apply_hd
from hadaquant.vquant import QuantConfig, derive_base_signs, derive_dither


def test_vector_file_roundtrip_binary_and_text(tmp_path):
    rng = np.random.default_rng(81)
    vecs = rng.standard_normal((4, 9))
    for text in (False, True):
        path = tmp_path / ("v.txt" if text else "v.vec")
        write_vectors(path, vecs, text=text)
        back = read_vectors(path, text=text)
        assert np.array_equal(back, vecs)


def test_quantize_dequantize_files(tmp_path):
    rng = np.random.default_rng(82)
    vecs = rng.standard_normal((3, 48))
    vecs[1] *= 20.0
    vecs[2] = 0.0
    src = tmp_path / "in.vec"
    write_vectors(src, vecs)
    codes = tmp_path / "codes"
    out = tmp_path / "out.vec"
    assert main(["quantize", "--input", str(src), "--output", str(codes),
                 "--bits", "6", "--seed", "3"]) == 0
    assert sorted(p.name for p in codes.glob("*.hq")) == [
        "vec_00000.hq", "vec_00001.hq", "vec_00002.hq"
    ]
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 0
    decoded = read_vectors(out)

    # files must reproduce the library path bit for bit
    cfg = QuantConfig(dim=48, bits=6)
    for i in range(3):
        lib = decode_payload(encode_vector(vecs[i], cfg, 3, i))
        assert np.array_equal(decoded[i], lib)
    assert np.array_equal(decoded[2], np.zeros(48))

    # base-stage distortion agrees with the transform-domain error sum
    for i in range(2):
        code = bitstream.decode((codes / f"vec_{i:05d}.hq").read_bytes())
        d = cfg.padded_dim
        unit = np.zeros(d)
        unit[:48] = vecs[i] / np.linalg.norm(vecs[i])
        diag = derive_base_signs(code.base.seed, code.base.vec_counter, d)
        cb = build_codebook(cfg.mode, cfg.num_levels,
                            derive_dither(code.base.seed, code.base.vec_counter))
        z = math.sqrt(d) * apply_hd(unit, diag)
        recon = cb.recon[code.base.indices]
        from hadaquant.vquant import _decode_padded_unit

        base_err = float(np.sum((unit - _decode_padded_unit(code.base, cfg)) ** 2))
        assert base_err == pytest.approx(float(np.sum((z - recon) ** 2)) / d, rel=1e-9)


def test_quantize_rejects_bad_inputs(tmp_path):
    empty = tmp_path / "empty.vec"
    empty.write_bytes(b"")
    assert main(["quantize", "--input", str(empty), "--output",
                 str(tmp_path / "c"), "--bits", "4"]) == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\nnan 3.0\n")
    assert main(["quantize", "--input", str(bad), "--output",
                 str(tmp_path / "c2"), "--bits", "4", "--text"]) == 1


def test_missing_bits_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "--input", "x", "--output", "y"])
    assert exc.value.code == 2


def test_invalid_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nonsense"])
    assert exc.value.code == 2


def test_bench_writes_deterministic_csv(tmp_path):
    args = ["bench", "rate", "--dim", "32", "--bits", "3", "--trials", "40",
            "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = [sys.executable, "-m", "hadaquant", "bench", "mse", "--dim", "64",
            "--bits", "4", "--trials", "600", "--seed", "5"]
    env = dict(os.environ)
    env.pop("HQ_THREADS", None)
    subprocess.run(base + ["--csv", str(serial)], check=True, env=env,
                   capture_output=True)
    env["HQ_THREADS"] = "2"
    subprocess.run(base + ["--csv", str(parallel)], check=True, env=env,
                   capture_output=True)
    assert serial.read_bytes() == parallel.read_bytes()


def test_dequantize_rejects_missing_payloads(tmp_path):
    (tmp_path / "d").mkdir()
    assert main(["dequantize", "--input", str(tmp_path / "d"),
                 "--output", str(tmp_path / "o.vec")]) == 1


def test_dequantize_orders_rows_by_vec_counter(tmp_path):
    # file names sort "vec_100000" between "vec_10000" and "vec_10001"; rows
    # must follow the counters in the headers instead
    rng = np.random.default_rng(83)
    cfg = QuantConfig(dim=6, bits=4)
    codes = tmp_path / "codes"
    codes.mkdir()
    expected = []
    for counter in (10000, 10001, 100000):
        payload = encode_vector(rng.standard_normal(6), cfg, 9, counter)
        (codes / f"vec_{counter:05d}.hq").write_bytes(payload)
        expected.append(decode_payload(payload))
    # equal counters keep file-name order
    tie = encode_vector(rng.standard_normal(6), cfg, 9, 100000)
    (codes / "vec_100000b.hq").write_bytes(tie)
    expected.append(decode_payload(tie))
    out = tmp_path / "out.vec"
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 0
    assert np.array_equal(read_vectors(out), np.vstack(expected))


@pytest.mark.parametrize("flag", ["--dim", "--bits", "--trials"])
def test_bench_explicit_zero_is_rejected(flag, capsys):
    # an explicit 0 must reach the suite's validation, not become the default
    args = {"--dim": "16", "--bits": "4", "--trials": "3", flag: "0"}
    assert main(["bench", "rate", *(item for pair in args.items() for item in pair)]) == 1
    assert "error:" in capsys.readouterr().err
