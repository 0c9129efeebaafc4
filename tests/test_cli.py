import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hadaquant import bench, bitstream
from hadaquant.cli import (
    decode_payload,
    encode_vector,
    main,
    read_vectors,
    write_vectors,
)
from hadaquant.codebook import build_codebook
from hadaquant.transform import apply_hd
from hadaquant.twostage import quantize_two_stage
from hadaquant.vquant import QuantConfig, derive_base_signs, derive_dither


def test_vector_file_roundtrip_binary_and_text(tmp_path):
    rng = np.random.default_rng(81)
    vecs = rng.standard_normal((4, 9))
    for text in (False, True):
        path = tmp_path / ("v.txt" if text else "v.vec")
        write_vectors(path, vecs, text=text)
        back = read_vectors(path, text=text)
        assert np.array_equal(back, vecs)


@pytest.mark.parametrize("text", [False, True])
@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0,), (), (2, 3, 4)],
                         ids=["no-rows", "no-columns", "empty-vector", "scalar", "3-d"])
def test_write_vectors_rejects_a_shape_that_read_vectors_cannot_read(tmp_path, shape, text):
    # each one wrote a file that read_vectors rejects, or raised after making it
    path = tmp_path / "vectors"
    with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
        write_vectors(path, np.zeros(shape), text=text)
    assert not path.exists()


def test_write_vectors_writes_one_vector_as_one_row(tmp_path):
    for text in (False, True):
        write_vectors(tmp_path / "v", [1.5, -2.0], text=text)
        assert np.array_equal(read_vectors(tmp_path / "v", text=text), [[1.5, -2.0]])


def test_write_vectors_writes_the_matrix_without_copying_it(tmp_path):
    # the file holds the header and the little-endian rows, whatever the
    # input's layout; a C-ordered float64 matrix is written from its buffer
    vecs = np.random.default_rng(85).standard_normal((30, 4096))
    path = tmp_path / "v.vec"
    want = struct.pack("<4sII", b"HQVF", 30, 4096) + vecs.astype("<f8").tobytes()
    for layout in (vecs, np.asfortranarray(vecs), vecs.astype(">f8")):
        write_vectors(path, layout)
        assert path.read_bytes() == want
    tracemalloc.start()
    try:
        write_vectors(path, vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * vecs.nbytes, peak / vecs.nbytes


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
        table = build_codebook(cfg.mode, cfg.num_levels,
                            derive_dither(code.base.seed, code.base.vec_counter))
        z = math.sqrt(d) * apply_hd(unit, diag)
        recon = table[code.base.indices]
        from hadaquant.vquant import _decode_padded_unit

        base_err = float(np.sum((unit - _decode_padded_unit([code.base], cfg)[0]) ** 2))
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

    # A row that fails only on encode (its norm exceeds float64) leaves no
    # payload of the rows before it.
    late = tmp_path / "late.txt"
    late.write_text("1.0 2.0\n1.5e308 1.5e308\n")
    assert main(["quantize", "--input", str(late), "--output",
                 str(tmp_path / "c3"), "--bits", "4", "--text"]) == 1
    assert not (tmp_path / "c3").exists()


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


@pytest.mark.parametrize("argv, unread", [
    (["oracle", "--dim", "5", "--bits", "3", "--trials", "7", "--mode", "biased"],
     "--dim, --bits, --trials, --mode"),
    (["oracle", "--trials", "0"], "--trials"),
    (["unbiased", "--mode", "biased"], "--mode"),
    (["unbiased", "--dim", "16", "--mode", "unbiased"], "--mode"),
], ids=["oracle-four-flags", "oracle-zero-trials", "unbiased-biased", "unbiased-unbiased"])
def test_bench_rejects_flags_the_suite_does_not_read(argv, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv])
    assert exc.value.code == 2
    assert f"suite {argv[0]} does not read {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, reason", [
    (["--bits", "1", "--trials", "20"], "diverges at dither 1/2"),
    (["--bits", "3", "--trials", "1"], "sample variance"),
], ids=["one-bit", "one-trial"])
def test_bench_unbiased_rejects_degenerate_args(flags, reason, capsys):
    # one error line and exit 1, not a traceback or a z-score over a zero variance
    assert main(["bench", "unbiased", "--dim", "8", *flags]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and reason in line


@pytest.mark.parametrize("bits, trials", [(1, 20), (3, 1)])
def test_unbiased_suite_rejects_degenerate_args_before_any_trial(monkeypatch, bits, trials):
    encodes = []
    monkeypatch.setattr(bench, "vector_quant", lambda *args: encodes.append(args))
    with pytest.raises(ValueError):
        bench.unbiased_suite(8, bits, trials, 0)
    assert encodes == []


def test_suites_reject_a_float_trial_count():
    # range(2.5) raised TypeError
    with pytest.raises(ValueError, match="trials must be an integer"):
        bench.rate_suite(16, 4, 2.5, 0)


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


@pytest.mark.parametrize("content, text, message", [
    (b"\n  \n", True, "no vectors found"),
    (b"1 2\n3\n", True, "inconsistent vector lengths"),
    (b"1 2 3\n4 x 6\n", True, "vectors:2: could not convert string to float: 'x'"),
    (struct.pack("<4sII", b"HQVX", 1, 1) + bytes(8), False, "bad magic"),
    (struct.pack("<4sII", b"HQVF", 0, 3), False, "empty vector file"),
    (struct.pack("<4sII", b"HQVF", 1, 2) + bytes(8), False, "expected 28 bytes, found 20"),
], ids=["no-vectors", "mixed-widths", "non-numeric", "bad-magic", "empty", "wrong-byte-count"])
def test_read_vectors_rejects_malformed_files(tmp_path, content, text, message):
    path = tmp_path / "vectors"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=message):
        read_vectors(path, text=text)


def test_quantize_refuses_a_directory_holding_payloads(tmp_path, capsys):
    # a second run into the same directory would leave the first run's
    # extra payloads to be decoded with its own
    rng = np.random.default_rng(84)
    five, three, codes = tmp_path / "five.vec", tmp_path / "three.vec", tmp_path / "codes"
    write_vectors(five, rng.standard_normal((5, 6)))
    write_vectors(three, rng.standard_normal((3, 6)))
    assert main(["quantize", "--input", str(five), "--output", str(codes), "--bits", "4"]) == 0
    before = {p.name: p.read_bytes() for p in codes.iterdir()}
    assert main(["quantize", "--input", str(three), "--output", str(codes), "--bits", "4"]) == 1
    assert "already holds .hq payloads" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in codes.iterdir()} == before


@pytest.mark.parametrize("row, message", [
    ([1.0, np.nan, 0.0], "row 1: input vector has NaN or infinite coordinates"),
    ([1.5e308, 1.5e308, 0.0], "row 1: the norm of the input vector exceeds the float64 range"),
], ids=["nan", "norm-overflow"])
def test_quantize_names_the_row_it_fails_on(tmp_path, capsys, row, message):
    vectors = np.array([[1.0, 2.0, 3.0], row, [4.0, 5.0, 6.0]])
    src, codes = tmp_path / "in.vec", tmp_path / "codes"
    write_vectors(src, vectors)
    assert main(["quantize", "--input", str(src), "--output", str(codes), "--bits", "4"]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not codes.exists()


def test_dequantize_names_the_payload_it_fails_on(tmp_path, capsys):
    codes = tmp_path / "codes"
    codes.mkdir()
    (codes / "vec_00000.hq").write_bytes(encode_vector(np.ones(4), QuantConfig(4, 3), 0, 0))
    (codes / "vec_00001.hq").write_bytes(bytes(4))
    out = tmp_path / "out.vec"
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{codes / 'vec_00001.hq'}: payload of 4 bytes is shorter than the header" in err
    assert not out.exists()


def test_dequantize_names_the_payload_whose_decode_overflows(tmp_path, capsys):
    # a well-formed payload: its unit direction decodes to a coordinate of
    # 2.5, which a stored norm of 1e308 takes beyond float64; its counter
    # puts it last in the batch, its file name second
    cfg = QuantConfig(4, 1)
    code = quantize_two_stage(np.ones(4), cfg, 0, 14)
    big = dataclasses.replace(code, base=dataclasses.replace(code.base, norm=1e308))
    codes = tmp_path / "codes"
    codes.mkdir()
    (codes / "vec_00000.hq").write_bytes(encode_vector(np.ones(4), cfg, 0, 0))
    (codes / "vec_00001.hq").write_bytes(bitstream.encode(big))
    (codes / "vec_00002.hq").write_bytes(encode_vector(np.ones(4), cfg, 0, 2))
    out = tmp_path / "out.vec"
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {codes / 'vec_00001.hq'}: the decoded vector exceeds the float64 range\n" == err
    assert not out.exists()


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_a_bytes_like_payload_is_one_payload(kind):
    # only a list or tuple of payloads is a batch; a bytearray is not a
    # batch of ints
    payload = encode_vector(np.arange(1.0, 6.0), QuantConfig(5, 3), 2, 7)
    decoded = decode_payload(kind(payload))
    assert decoded.shape == (5,)
    assert decoded.tobytes() == decode_payload(payload).tobytes()
    assert decode_payload((kind(payload),)).tobytes() == decoded.tobytes()


def test_dequantize_rejects_mixed_dimensions(tmp_path, capsys):
    codes = tmp_path / "codes"
    codes.mkdir()
    for counter, dim in enumerate((4, 6)):
        payload = encode_vector(np.ones(dim), QuantConfig(dim=dim, bits=3), 0, counter)
        (codes / f"vec_{counter:05d}.hq").write_bytes(payload)
    out = tmp_path / "out.vec"
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 1
    assert "mixed dimensions [4, 6]" in capsys.readouterr().err
    assert not out.exists()


def test_bench_oracle_passes_every_row(capsys):
    assert main(["bench", "oracle"]) == 0
    *rows, wall = capsys.readouterr().out.splitlines()
    # three enumeration identities and the FWHT against the dense Hadamard,
    # then the suite's wall time, printed once
    assert len(rows) == 4
    assert all(row.startswith("oracle/") and row.endswith(" PASS") for row in rows)
    assert re.fullmatch(r"oracle: 4 rows in \d+\.\d\ds", wall)
