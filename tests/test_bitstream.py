import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hadaquant import bitstream
from hadaquant.bitstream import (
    HEADER,
    BadMagicError,
    FieldOverflowError,
    LevelOverrunError,
    PaddingError,
    TrailingDataError,
    TruncatedPayloadError,
    VersionMismatchError,
    WireFormatError,
    decode,
    encode,
    rate_report,
)
from hadaquant.codebook import MODES, UNBIASED
from hadaquant.residual import MAX_LEVEL, ResidualCode
from hadaquant.twostage import TwoStageCode, dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import QuantConfig, VectorCode


def _code(dim=4, bits=2, indices=None, scale_idx=0, levels=None, signs=None,
          seed=0, counter=0, norm=1.0, mode=UNBIASED):
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    d = cfg.padded_dim
    indices = np.asarray(
        indices if indices is not None else np.zeros(d), dtype=np.uint16
    )
    levels = np.asarray(levels if levels is not None else np.zeros(d), dtype=np.int64)
    if signs is None:
        signs = np.ones(d, dtype=np.int8) if scale_idx else np.zeros(d, dtype=np.int8)
    base = VectorCode(indices, norm, seed, counter)
    resid = ResidualCode(scale_idx, levels, np.asarray(signs, dtype=np.int8))
    return TwoStageCode(base, resid, cfg)


def _random_code(rng):
    dim = int(rng.integers(1, 40))
    bits = int(rng.integers(1, 9))
    cfg = QuantConfig(dim=dim, bits=bits)
    d = cfg.padded_dim
    indices = rng.integers(0, cfg.num_levels, size=d)
    if rng.random() < 0.25:
        return _code(dim, bits, indices, 0, seed=int(rng.integers(1 << 40)),
                     counter=int(rng.integers(1 << 40)), norm=float(rng.random() * 9))
    levels = rng.integers(0, 7, size=d)
    signs = rng.choice([-1, 1], size=d).astype(np.int8)
    return _code(dim, bits, indices, int(rng.integers(1, 40)), levels, signs,
                 seed=int(rng.integers(1 << 40)), counter=int(rng.integers(1 << 40)),
                 norm=float(rng.random() * 9))


def test_hand_packed_index_block():
    payload = encode(_code(indices=[0, 1, 2, 3]))
    assert payload[HEADER.size:] == bytes([0b11100100])


def test_trivial_residual_omits_levels_and_signs():
    code = _code(dim=6, bits=3, indices=[1, 2, 3, 4, 5, 6, 7, 0])
    body = encode(code)[HEADER.size:]
    assert len(body) == math.ceil(8 * 3 / 8)


def test_header_is_288_bits():
    assert bitstream.HEADER_BITS == 288
    report = rate_report(_code())
    assert report["header_bits"] == 288
    assert report["idx_bits"] == 8
    assert report["level_bits"] == 0 and report["sign_bits"] == 0


def test_rate_report_matches_encoded_length():
    rng = np.random.default_rng(71)
    for _ in range(200):
        code = _random_code(rng)
        report = rate_report(code)
        payload = encode(code)
        body_bits = report["total_bits"] - report["header_bits"]
        assert len(payload) == HEADER.size + math.ceil(body_bits / 8)
        if code.residual.scale_idx:
            d = code.config.padded_dim
            assert report["level_bits"] == int(np.sum(code.residual.levels + 1))
            assert report["sign_bits"] == d


def test_roundtrip_fuzz_bit_identical():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        code = _random_code(rng)
        payload = encode(code)
        back = decode(payload)
        assert encode(back) == payload
        assert np.array_equal(back.base.indices, code.base.indices)
        assert np.array_equal(back.residual.levels, code.residual.levels)
        if code.residual.scale_idx:
            assert np.array_equal(back.residual.signs, code.residual.signs)
        assert back.base.norm == code.base.norm
        assert back.base.seed == code.base.seed
        assert back.base.vec_counter == code.base.vec_counter
        assert back.config == code.config


def test_roundtrip_of_real_encodes():
    rng = np.random.default_rng(73)
    cfg = QuantConfig(dim=50, bits=5)
    for trial in range(25):
        x = rng.standard_normal(50)
        x /= np.linalg.norm(x)
        code = quantize_two_stage(x, cfg, seed=1, vec_counter=trial)
        assert encode(decode(encode(code))) == encode(code)


def test_bad_magic_rejected():
    payload = bytearray(encode(_code()))
    payload[0] = ord("X")
    with pytest.raises(BadMagicError):
        decode(bytes(payload))


def test_version_mismatch_rejected():
    payload = bytearray(encode(_code()))
    payload[4] = 9
    with pytest.raises(VersionMismatchError):
        decode(bytes(payload))


def test_bad_mode_and_bits_rejected():
    payload = bytearray(encode(_code()))
    payload[5] = 7
    with pytest.raises(FieldOverflowError):
        decode(bytes(payload))
    payload = bytearray(encode(_code()))
    payload[6] = 0
    with pytest.raises(FieldOverflowError):
        decode(bytes(payload))


def test_truncation_rejected():
    code = _code(dim=16, bits=4, scale_idx=3, levels=np.ones(16, dtype=np.int64))
    payload = encode(code)
    for cut in (1, 5, len(payload) - HEADER.size):
        with pytest.raises(TruncatedPayloadError):
            decode(payload[: len(payload) - cut])
    with pytest.raises(TruncatedPayloadError):
        decode(payload[:10])


def test_nonzero_padding_rejected():
    code = _code(dim=3, bits=3)  # padded dim 4, 12 body bits, 4 pad bits
    payload = bytearray(encode(code))
    payload[-1] |= 0x80
    with pytest.raises(PaddingError):
        decode(bytes(payload))


def test_trailing_bytes_rejected():
    payload = encode(_code())
    with pytest.raises(TrailingDataError):
        decode(payload + b"\x00")


def test_level_overrun_rejected():
    code = _code(dim=16, bits=1, scale_idx=2, levels=np.zeros(16, dtype=np.int64))
    payload = bytearray(encode(code))
    # flood the level region (after the 16 index bits = 2 bytes) with ones
    for i in range(HEADER.size + 2, len(payload)):
        payload[i] = 0xFF
    payload.extend(b"\xff" * 8)
    with pytest.raises(LevelOverrunError):
        decode(bytes(payload))


def test_level_overrun_inside_a_complete_level_block_rejected():
    # all four levels end and the signs follow, but one unary run is too long
    header = encode(_code(bits=1, scale_idx=2, levels=np.zeros(4)))[: HEADER.size]
    runs = [np.ones(MAX_LEVEL + 1, np.uint8), np.zeros(4, np.uint8), np.ones(4, np.uint8)]
    body = np.packbits(np.concatenate([np.zeros(4, np.uint8), *runs]), bitorder="little")
    with pytest.raises(LevelOverrunError):
        decode(header + body.tobytes())


def test_header_field_sanity_rejected():
    payload = bytearray(encode(_code()))
    payload[8:12] = (0).to_bytes(4, "little")  # dim = 0
    with pytest.raises(FieldOverflowError):
        decode(bytes(payload))
    payload = bytearray(encode(_code()))
    payload[28:36] = np.float64(np.nan).tobytes()  # norm = NaN
    with pytest.raises(FieldOverflowError):
        decode(bytes(payload))


def test_encode_rejects_field_overflow():
    with pytest.raises(FieldOverflowError):
        encode(_code(indices=[4, 0, 0, 0]))  # index needs 3 bits, bits=2
    with pytest.raises(FieldOverflowError):
        encode(_code(scale_idx=256, levels=np.zeros(4, dtype=np.int64)))
    with pytest.raises(FieldOverflowError):
        encode(_code(scale_idx=1, levels=np.full(4, 65, dtype=np.int64)))
    with pytest.raises(FieldOverflowError):
        encode(_code(norm=math.inf))
    with pytest.raises(FieldOverflowError):
        encode(_code(seed=1 << 64))
    # a float scale index raised a bare struct.error
    with pytest.raises(FieldOverflowError):
        encode(_code(scale_idx=1.0))
    # the header's u32 dim, judged before the length-1 arrays
    base = VectorCode(np.zeros(1, dtype=np.uint16), 1.0, 0, 0)
    resid = ResidualCode(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int8))
    code = TwoStageCode(base, resid, QuantConfig(2**32, 1))
    for call in (encode, rate_report):
        with pytest.raises(FieldOverflowError, match="dim 4294967296 does not fit u32"):
            call(code)


def test_every_corruption_is_a_typed_error():
    rng = np.random.default_rng(74)
    payload = bytearray(encode(_random_code(rng)))
    for _ in range(300):
        blob = bytearray(payload)
        for _ in range(int(rng.integers(1, 4))):
            blob[int(rng.integers(len(blob)))] = int(rng.integers(256))
        try:
            decode(bytes(blob))
        except WireFormatError:
            pass  # typed rejection or a silently valid mutation; never a crash


@st.composite
def _valid_codes(draw):
    cfg = QuantConfig(
        dim=draw(st.integers(1, 40)),
        bits=draw(st.integers(1, 16)),
        mode=draw(st.sampled_from(MODES)),
    )
    d = cfg.padded_dim
    indices = draw(hnp.arrays(np.uint16, d, elements=st.integers(0, cfg.num_levels - 1)))
    norm = draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    seed, counter = draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1))
    scale_idx = draw(st.integers(0, 255))
    if scale_idx:
        levels = draw(hnp.arrays(np.int64, d, elements=st.integers(0, MAX_LEVEL)))
        signs = draw(hnp.arrays(np.int8, d, elements=st.sampled_from([-1, 1])))
    else:
        levels, signs = np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int8)
    return TwoStageCode(
        VectorCode(indices, norm, seed, counter), ResidualCode(scale_idx, levels, signs), cfg
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(code=_valid_codes())
def test_wire_round_trip_decodes_bit_identically(code):
    back = decode(encode(code))
    # a norm near the float64 limit may decode beyond float64; then both
    # sides raise ValueError
    try:
        expected = dequantize_two_stage(code).tobytes()
    except ValueError:
        with pytest.raises(ValueError, match="float64 range"):
            dequantize_two_stage(back)
    else:
        assert dequantize_two_stage(back).tobytes() == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(code=_valid_codes(), data=st.data())
def test_mutated_or_truncated_payload_is_typed_error(code, data):
    payload = bytearray(encode(code))
    positions = st.integers(0, len(payload) - 1)
    for pos, value in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), max_size=4)):
        payload[pos] = value
    cut = data.draw(st.integers(0, len(payload)))
    try:
        decode(bytes(payload[:cut]))
    except WireFormatError:
        pass  # typed rejection or a silently valid mutation; never a crash


def _reference_body(code: TwoStageCode) -> bytes:
    # The body layout of the module docstring, one bit at a time: b bits per
    # index, lowest first; then, at a nonzero scale index, each level in
    # unary (that many ones, then a zero) and one bit per sign, 1 for +1;
    # then zero bits to a byte boundary, every byte filled lowest bit first.
    bits = [(int(i) >> k) & 1 for i in code.base.indices for k in range(code.config.bits)]
    if code.residual.scale_idx:
        for level in code.residual.levels:
            bits += [1] * int(level) + [0]
        bits += [int(s == 1) for s in code.residual.signs]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(bit << k for k, bit in enumerate(bits[i : i + 8]))
                 for i in range(0, len(bits), 8))


@st.composite
def _wide_codes(draw):
    # well-formed codes at dim 1-300 and 4096, every bit width, drawn from a
    # seeded generator so that 4096-entry fields stay cheap to draw
    cfg = QuantConfig(draw(st.one_of(st.integers(1, 300), st.just(4096))),
                      draw(st.integers(1, 16)), draw(st.sampled_from(MODES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = cfg.padded_dim
    indices = rng.integers(0, cfg.num_levels, d).astype(np.uint16)
    scale_idx = draw(st.sampled_from([0, 1, 255]))
    if scale_idx:
        levels = rng.integers(0, draw(st.sampled_from([1, 3, MAX_LEVEL])) + 1, d)
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), d)
    else:
        levels, signs = np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int8)
    return TwoStageCode(VectorCode(indices, 1.5, 3, 2**64 - 1),
                        ResidualCode(scale_idx, levels, signs), cfg)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(code=_wide_codes())
def test_body_matches_a_per_bit_reference_packer(code):
    payload = encode(code)
    body = _reference_body(code)
    assert payload[HEADER.size:] == body
    back = decode(payload[: HEADER.size] + body)
    assert back.base.indices.dtype == np.uint16
    assert np.array_equal(back.base.indices, code.base.indices)
    assert np.array_equal(back.residual.levels, code.residual.levels)
    assert np.array_equal(back.residual.signs, code.residual.signs)
