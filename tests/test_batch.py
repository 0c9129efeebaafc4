"""Batch-first codec: a batch encodes and decodes each row as its own call does."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadaquant import residual, vquant
from hadaquant.bitstream import decode, encode
from hadaquant.cli import decode_payload, encode_vector, main, read_vectors
from hadaquant.codebook import BIASED, MODES, UNBIASED
from hadaquant.residual import ResidualCode, residual_dequant, residual_quant
from hadaquant.twostage import dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import QuantConfig, chunk_rows, vector_dequant, vector_quant


@st.composite
def _batches(draw):
    # rows of varied norms from a seeded generator, some zero and one above
    # the decoders' range check, under counters that include words >= 2**63
    n = draw(st.integers(1, 40))
    cfg = QuantConfig(draw(st.one_of(st.integers(1, 300), st.just(4096))),
                      draw(st.integers(1, 16)), draw(st.sampled_from(MODES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, cfg.dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    x[rng.random(n) < 0.2] = 0.0
    big = draw(st.integers(0, n - 1))
    if x[big].any():
        x[big] *= 2.0 ** draw(st.integers(701, 900)) / np.linalg.norm(x[big])
    counters = draw(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1)),
                             min_size=n, max_size=n))
    return x, cfg, draw(st.integers(0, 2**64 - 1)), counters


@settings(max_examples=30, deadline=None, derandomize=True)
@given(batch=_batches())
def test_batch_payloads_equal_the_per_row_payloads(batch):
    x, cfg, seed, counters = batch
    assert encode_vector(x, cfg, seed, counters) == [
        encode_vector(row, cfg, seed, c) for row, c in zip(x, counters)
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(batch=_batches())
def test_batch_base_codes_equal_the_per_row_codes(batch):
    x, cfg, seed, counters = batch
    for code, row, c in zip(vector_quant(x, cfg, seed, counters), x, counters):
        single = vector_quant(row, cfg, seed, c)
        assert code.indices.tobytes() == single.indices.tobytes()
        assert (code.norm, code.seed, code.vec_counter) == (single.norm, seed, c)


def test_batch_residual_codes_equal_the_per_row_codes():
    cfg = QuantConfig(100, 5)
    rng = np.random.default_rng(91)
    r = rng.standard_normal((11, cfg.padded_dim))
    r *= rng.uniform(0.0, 2.0, (11, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
    r[3] = 0.0
    r[7] *= 1e-9  # below the scale floor: the zero code
    codes = residual_quant(r, cfg, 5, range(11))
    assert codes[3].scale_idx == codes[7].scale_idx == 0
    for code, row, c in zip(codes, r, range(11)):
        single = residual_quant(row, cfg, 5, c)
        assert code.scale_idx == single.scale_idx
        assert np.array_equal(code.levels, single.levels)
        assert np.array_equal(code.signs, single.signs)
        assert code.signs.dtype == single.signs.dtype == np.int8


@pytest.mark.parametrize("encode", [vector_quant, quantize_two_stage, encode_vector])
def test_a_failing_row_raises_its_own_error_naming_the_row(encode):
    cfg = QuantConfig(4, 3, BIASED)
    x = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError) as single:
        encode(x[2], cfg, 0, 2)
    with pytest.raises(ValueError) as batch:
        encode(x, cfg, 0, [0, 1, 2])
    assert str(single.value) == "input vector has NaN or infinite coordinates"
    assert str(batch.value) == f"row 2: {single.value}"
    with pytest.raises(ValueError, match="row 1: vec_counter -1 outside"):
        encode(x[:2], cfg, 0, [0, -1])
    # a base decode beyond float64 (tests/test_norm.py), judged after encoding
    if encode is vector_quant:
        x = np.array([[1.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1: the decoded vector exceeds the float64"):
            encode(x, QuantConfig(3, 4, BIASED), 0, [0, 1])


def test_a_batch_needs_rows_and_one_counter_per_row():
    cfg = QuantConfig(4, 3)
    x = np.ones((3, 4))
    for bad in ([0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="n rows with n counters"):
            vector_quant(x, cfg, 0, bad)
    with pytest.raises(ValueError, match="n rows with n counters"):
        vector_quant(x[0], cfg, 0, [0, 1, 2, 3])
    # an int counter makes x one vector, which a 2-D array is not
    with pytest.raises(ValueError, match="length 4"):
        vector_quant(x, cfg, 0, 0)
    assert vector_quant(x[:0], cfg, 0, []) == []


@pytest.mark.parametrize("dim, bits, n, stacks", [
    (4096, 4, 30, [8, 8, 8, 6]),
    (64, 16, 3, [1, 1, 1]),
    (64, 3, 600, [512, 88]),
])
def test_codebook_stacks_stay_within_a_chunk(monkeypatch, dim, bits, n, stacks):
    # one table stack per chunk of rows, and never more than one
    # 65 536-entry table at a time
    cfg = QuantConfig(dim, bits)
    assert chunk_rows(cfg) == stacks[0]
    sizes = []
    build = vquant.build_codebook
    monkeypatch.setattr(vquant, "build_codebook",
                        lambda mode, levels, dither: sizes.append(len(dither)) or
                        build(mode, levels, dither))
    x = np.random.default_rng(92).standard_normal((n, dim))
    quantize_two_stage(x, cfg, 1, range(n))
    assert sizes == stacks


def test_zero_rows_derive_no_randomness(monkeypatch):
    streams = []
    for module, name in ((vquant, "derive_base_signs"), (vquant, "derive_dither"),
                         (residual, "derive_residual_signs")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda seed, c, *a, _fn=fn: streams.append(c) or
                            _fn(seed, c, *a))
    x = np.zeros((3, 8))
    x[1, 0] = 1.0
    codes = quantize_two_stage(x, QuantConfig(8, 2), 0, [10, 11, 12])
    assert set(streams) == {11}
    assert codes[0].base.norm == codes[2].base.norm == 0.0


def _assert_same_code(code, single):
    # field for field, dtypes included
    for got, want in ((code.base.indices, single.base.indices),
                      (code.residual.levels, single.residual.levels),
                      (code.residual.signs, single.residual.signs)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (code.base.norm, code.base.seed, code.base.vec_counter) == (
        single.base.norm, single.base.seed, single.base.vec_counter)
    assert (code.residual.scale_idx, code.config) == (single.residual.scale_idx, single.config)


def _record_streams(monkeypatch):
    # the (stream, counter) of every derivation in the encoders
    streams = []
    for module, name in ((vquant, "derive_base_signs"), (vquant, "derive_dither"),
                         (residual, "derive_residual_signs")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda seed, c, *a, _fn=fn, _name=name:
                            streams.append((_name, c)) or _fn(seed, c, *a))
    uniforms = residual.sample_uniforms
    monkeypatch.setattr(residual, "sample_uniforms", lambda seed, tag, *a:
                        streams.append(("sign_bits", tag[0])) or uniforms(seed, tag, *a))
    return streams


def test_a_chunk_of_zero_rows_gives_the_per_row_codes_and_derives_nothing(monkeypatch):
    cfg = QuantConfig(8, 3)
    singles = [quantize_two_stage(np.zeros(8), cfg, 4, c) for c in range(5)]
    streams = _record_streams(monkeypatch)
    codes = quantize_two_stage(np.zeros((5, 8)), cfg, 4, range(5))
    assert streams == []
    for code, single in zip(codes, singles):
        _assert_same_code(code, single)
        assert code.base.norm == 0.0 and code.residual.scale_idx == 0


def test_a_chunk_of_residuals_below_the_floor_gives_the_per_row_codes(monkeypatch):
    cfg = QuantConfig(100, 5)
    r = np.random.default_rng(93).standard_normal((6, cfg.padded_dim))
    r *= 1e-9 / np.linalg.norm(r, axis=1, keepdims=True)
    r[2] = 0.0
    singles = [residual_quant(row, cfg, 5, c) for c, row in enumerate(r)]
    streams = _record_streams(monkeypatch)
    codes = residual_quant(r, cfg, 5, range(6))
    assert streams == []
    for code, single in zip(codes, singles):
        assert code.scale_idx == single.scale_idx == 0
        for got, want in ((code.levels, single.levels), (code.signs, single.signs)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_a_chunk_mixing_zero_below_floor_and_live_rows_gives_the_per_row_codes(monkeypatch):
    # at dim 1 a decode beyond the unit ball projects back onto the input's
    # direction exactly, which leaves a zero residual on a nonzero row
    cfg = QuantConfig(1, 1)
    x = np.array([[3.0], [0.0], [-2.0], [1.0], [0.0], [5.0], [-1.0], [7.0]])
    singles = [quantize_two_stage(row, cfg, 7, c) for c, row in enumerate(x)]
    streams = _record_streams(monkeypatch)
    codes = quantize_two_stage(x, cfg, 7, range(8))
    kinds = [(code.base.norm > 0.0, code.residual.scale_idx > 0) for code in codes]
    assert set(kinds) == {(False, False), (True, False), (True, True)}
    for code, single in zip(codes, singles):
        _assert_same_code(code, single)
    base = [c for c, (live, _) in enumerate(kinds) if live]
    resid = [c for c, (_, live) in enumerate(kinds) if live]
    assert sorted(streams) == sorted(
        [(name, c) for c in base for name in ("derive_base_signs", "derive_dither")]
        + [(name, c) for c in resid for name in ("derive_residual_signs", "sign_bits")])


def test_residual_levels_take_two_bytes_a_coordinate_and_keep_their_type_on_the_wire():
    cfg = QuantConfig(4096, 4)
    x = np.random.default_rng(94).standard_normal((16, cfg.dim))
    for code in quantize_two_stage(x, cfg, 3, range(16)):
        assert code.residual.scale_idx > 0
        assert code.residual.levels.itemsize <= 2
        assert decode(encode(code)).residual.levels.dtype == code.residual.levels.dtype



@settings(max_examples=30, deadline=None, derandomize=True)
@given(batch=_batches(), data=st.data())
def test_each_row_of_a_batch_decode_equals_its_own_decode(batch, data):
    # the three decoders over chunk boundaries (d = 4096 is 8 rows a chunk,
    # bits 16 one row), zero-norm codes, scale-0 residuals and norms above
    # the decoders' range check
    x, cfg, seed, counters = batch
    codes = quantize_two_stage(x, cfg, seed, counters)
    zero = ResidualCode(0, np.zeros(cfg.padded_dim, np.int16), np.zeros(cfg.padded_dim, np.int8))
    for i in data.draw(st.sets(st.integers(0, len(codes) - 1), max_size=4)):
        codes[i] = dataclasses.replace(codes[i], residual=zero)
    bases, residuals = [c.base for c in codes], [c.residual for c in codes]
    seeds = [seed] * len(codes)
    cases = [
        (dequantize_two_stage, (codes,), [(c,) for c in codes], cfg.dim),
        (vector_dequant, (bases, cfg), [(b, cfg) for b in bases], cfg.dim),
        (residual_dequant, (residuals, cfg, seeds, counters),
         list(zip(residuals, [cfg] * len(codes), seeds, counters)), cfg.padded_dim),
    ]
    for decoder, batch_args, single_args, width in cases:
        decoded = decoder(*batch_args)
        assert decoded.shape == (len(codes), width) and decoded.dtype == np.float64
        assert [row.tobytes() for row in decoded] == [decoder(*a).tobytes() for a in single_args]


def test_a_directory_mixing_bits_and_modes_decodes_each_payload_as_its_own_call(tmp_path):
    rng = np.random.default_rng(95)
    codes_dir = tmp_path / "codes"
    codes_dir.mkdir()
    payloads = []
    for counter, (bits, mode, seed) in enumerate(
            [(2, UNBIASED, 1), (16, BIASED, 2), (5, UNBIASED, 3), (2, BIASED, 1), (16, UNBIASED, 9),
             (5, BIASED, 4), (2, UNBIASED, 5), (1, UNBIASED, 6)]):
        x = rng.standard_normal(50) if counter != 3 else np.zeros(50)
        payloads.append(encode_vector(x, QuantConfig(50, bits, mode), seed, counter))
        (codes_dir / f"vec_{counter:05d}.hq").write_bytes(payloads[-1])
    out = tmp_path / "out.vec"
    assert main(["dequantize", "--input", str(codes_dir), "--output", str(out)]) == 0
    want = [decode_payload(p).tobytes() for p in payloads]
    assert [row.tobytes() for row in read_vectors(out)] == want
    assert [row.tobytes() for row in decode_payload(payloads)] == want


@pytest.mark.parametrize("dim, bits, n, stacks", [(4096, 4, 30, [8, 8, 8, 6]), (64, 16, 3, [1, 1, 1])])
def test_a_batch_decode_builds_one_table_stack_per_chunk(monkeypatch, dim, bits, n, stacks):
    cfg = QuantConfig(dim, bits)
    codes = quantize_two_stage(np.random.default_rng(96).standard_normal((n, dim)), cfg, 1, range(n))
    sizes = []
    build = vquant.build_codebook
    monkeypatch.setattr(vquant, "build_codebook",
                        lambda mode, levels, dither: sizes.append(len(dither)) or
                        build(mode, levels, dither))
    dequantize_two_stage(codes)
    assert sizes == stacks
    sizes.clear()
    vector_dequant([code.base for code in codes], cfg)
    assert sizes == stacks


def test_a_batch_decode_runs_each_stretch_of_one_config_in_its_own_chunks(monkeypatch):
    # configs A, A, B, A, A: three runs, each decoded in place in one chunk
    a, b = QuantConfig(50, 2), QuantConfig(50, 3)
    rng = np.random.default_rng(99)
    codes = [quantize_two_stage(rng.standard_normal(50), cfg, 3, counter)
             for counter, cfg in enumerate([a, a, b, a, a])]
    singles = [dequantize_two_stage(code).tobytes() for code in codes]
    sizes = []
    build = vquant.build_codebook
    monkeypatch.setattr(vquant, "build_codebook",
                        lambda mode, levels, dither: sizes.append(len(dither)) or
                        build(mode, levels, dither))
    assert [row.tobytes() for row in dequantize_two_stage(codes)] == singles
    assert sizes == [2, 1, 2]
    assert [row.tobytes() for row in decode_payload([encode(c) for c in codes])] == singles


def test_an_empty_batch_decode_has_the_row_width_of_its_config():
    cfg = QuantConfig(5, 3)
    assert vector_dequant([], cfg).shape == (0, 5)
    assert residual_dequant([], cfg, [], []).shape == (0, 8)
    # no code, so no config and no width
    assert dequantize_two_stage([]).shape == decode_payload([]).shape == (0, 0)


def test_a_failing_code_raises_its_own_error_naming_the_row():
    # bits 16 runs one row a chunk, so row 2 is the first row of the third
    # chunk and of the residual_dequant call made for it
    cfg = QuantConfig(4, 16)
    codes = quantize_two_stage(np.arange(12.0).reshape(3, 4) + 1.0, cfg, 0, range(3))
    bad_norm = dataclasses.replace(codes[1].base, norm=-1.0)
    bad_levels = dataclasses.replace(codes[2].residual, levels=np.full(4, -1, np.int16))
    bases = [codes[0].base, bad_norm, codes[2].base]
    residuals = [codes[0].residual, codes[1].residual, bad_levels]
    two_stage = [codes[0], dataclasses.replace(codes[1], base=bad_norm)]
    two_stage_residual = [*codes[:2], dataclasses.replace(codes[2], residual=bad_levels)]
    payloads = [encode(codes[0]), bytes(4), encode(codes[2])]
    # a decode beyond float64 in the third chunk: the top level of every
    # coordinate at a stored norm of 1e308
    overflow = dataclasses.replace(codes[2].base, indices=np.full(4, 65535, np.uint16), norm=1e308)
    cases = [  # (batch call, the failing row's own call, row)
        (lambda: vector_dequant(bases, cfg), lambda: vector_dequant(bad_norm, cfg), 1),
        (lambda: vector_dequant([codes[0].base, codes[1].base, overflow], cfg),
         lambda: vector_dequant(overflow, cfg), 2),
        (lambda: dequantize_two_stage(two_stage), lambda: dequantize_two_stage(two_stage[1]), 1),
        (lambda: dequantize_two_stage(two_stage_residual),
         lambda: dequantize_two_stage(two_stage_residual[2]), 2),
        (lambda: residual_dequant(residuals, cfg, [0, 0, 0], [0, 1, 2]),
         lambda: residual_dequant(bad_levels, cfg, 0, 2), 2),
        (lambda: decode_payload(payloads), lambda: decode_payload(payloads[1]), 1),
    ]
    for batch_call, single_call, row in cases:
        with pytest.raises(ValueError) as single:
            single_call()
        with pytest.raises(vquant.RowError) as raised:
            batch_call()
        assert str(raised.value) == f"row {row}: {single.value}"
        assert raised.value.row == row and type(raised.value.error) is type(single.value)
    # a decode beyond float64: a coordinate of 2.5 at a stored norm of 1e308
    code = quantize_two_stage(np.ones(4), QuantConfig(4, 1), 0, 14)
    big = dataclasses.replace(code, base=dataclasses.replace(code.base, norm=1e308))
    with pytest.raises(ValueError, match="^row 1: the decoded vector exceeds the float64 range$"):
        dequantize_two_stage([code, big, code])


def test_a_batch_decode_needs_one_dim_and_one_token_pair_per_code():
    codes = [quantize_two_stage(np.ones(dim), QuantConfig(dim, 3), 0, 0) for dim in (6, 4, 6)]
    with pytest.raises(ValueError, match=r"codes decode to mixed dimensions \[4, 6\]"):
        dequantize_two_stage(codes)
    residuals = [code.residual for code in codes[::2]]
    for batch, seeds, counters in ((residuals, [0, 0], [0]), (residuals[:1], 0, 0), ([], 0, 0)):
        with pytest.raises(ValueError, match="n codes with n seeds and n counters"):
            residual_dequant(batch, codes[0].config, seeds, counters)


def test_a_batch_decode_derives_no_randomness_for_zero_rows(monkeypatch):
    # a zero-norm code derives no base stream, a scale-0 residual no residual
    # stream, as in the encoders
    x = np.zeros((4, 8))
    x[[1, 3]] = np.random.default_rng(97).standard_normal((2, 8))
    codes = quantize_two_stage(x, QuantConfig(8, 2), 0, [10, 11, 12, 13])
    codes[3] = dataclasses.replace(codes[3], residual=codes[0].residual)
    assert codes[1].residual.scale_idx > 0 and codes[3].residual.scale_idx == 0
    singles = [dequantize_two_stage(code).tobytes() for code in codes]
    streams = _record_streams(monkeypatch)
    assert [row.tobytes() for row in dequantize_two_stage(codes)] == singles
    base = [(name, c) for c in (11, 13) for name in ("derive_base_signs", "derive_dither")]
    assert sorted(streams) == sorted(base + [("derive_residual_signs", 11)])
    streams.clear()
    decoded = vector_dequant([code.base for code in codes], codes[0].config)
    assert sorted(streams) == sorted(base)
    assert not np.signbit(decoded[[0, 2]]).any() and not decoded[[0, 2]].any()
