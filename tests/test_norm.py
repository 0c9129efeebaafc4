"""The stored norm: any finite input keeps its scale through both codecs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hadaquant import bitstream, vquant
from hadaquant.cli import decode_payload, encode_vector, main
from hadaquant.codebook import BIASED, MODES
from hadaquant.residual import MAX_LEVEL, MAX_SCALE_IDX, ResidualCode
from hadaquant.twostage import TwoStageCode, dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import QuantConfig, VectorCode, scaled_norm, vector_dequant, vector_quant


def test_scaled_norm_equals_linalg_norm_on_ordinary_inputs():
    rng = np.random.default_rng(81)
    for dim in (1, 3, 64, 1000):
        for exp in range(-100, 101, 20):
            x = rng.standard_normal(dim) * 10.0**exp
            assert scaled_norm(x) == float(np.linalg.norm(x))
    assert scaled_norm(np.zeros(5)) == 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extreme_norms_round_trip(scale):
    # np.linalg.norm squares the coordinates: 1e200 gave an inf norm that
    # decoded to inf and NaN, 1e-200 a zero norm that decoded to zeros
    cfg = QuantConfig(dim=8, bits=4)
    x = np.full(8, scale)
    code = vector_quant(x, cfg, seed=1, vec_counter=0)
    assert code.norm == pytest.approx(math.sqrt(8.0) * scale, rel=1e-15)
    for decoded in (vector_dequant(code, cfg), decode_payload(encode_vector(x, cfg, 1, 0))):
        assert np.all(np.isfinite(decoded))
        assert np.linalg.norm(decoded / scale - 1.0) <= 0.5 * math.sqrt(8.0)


def test_only_overflowing_norms_are_rejected():
    cfg = QuantConfig(dim=3, bits=4, mode=BIASED)
    # the norm itself overflows
    for encode in (vector_quant, quantize_two_stage, encode_vector):
        with pytest.raises(ValueError, match="float64 range"):
            encode(np.full(3, 1.5e308), cfg, 0, 1)
    # a finite norm whose base decode would; the two-stage codec judges its
    # own decode (next test)
    with pytest.raises(ValueError, match="float64 range"):
        vector_quant(np.array([1.7e308, 0.0, 0.0]), cfg, 0, 1)
    x = np.full(3, 1e307)
    code = vector_quant(x, cfg, 0, 1)
    for decoded in (vector_dequant(code, cfg), decode_payload(encode_vector(x, cfg, 0, 1))):
        assert np.all(np.isfinite(decoded)) and decoded.min() > 0.0


def _overflowing_codes():
    # well-formed codes whose decode exceeds float64: a base code at norm
    # 1.7e308 with every index at the top bucket, and a two-stage code whose
    # residual has scale index 255 and every level 64, at norm 2**800
    x, cfg = np.array([3.0, -2.0, 1.0, 0.5]), QuantConfig(4, 3)
    top = np.full(4, 7, dtype=np.uint16)
    base = dataclasses.replace(vector_quant(x, cfg, 0, 1), norm=1.7e308, indices=top)
    big = dataclasses.replace(quantize_two_stage(x, cfg, 0, 1).base, norm=2.0**800)
    residual = ResidualCode(255, np.full(4, 64), np.ones(4, dtype=np.int8))
    return base, TwoStageCode(big, residual, cfg)


def test_decoders_reject_a_decode_beyond_float64():
    base, two_stage = _overflowing_codes()
    with pytest.raises(ValueError, match="float64 range"):
        vector_dequant(base, two_stage.config)
    with pytest.raises(ValueError, match="float64 range"):
        dequantize_two_stage(two_stage)
    with pytest.raises(ValueError, match="float64 range"):
        decode_payload(bitstream.encode(two_stage))


@pytest.mark.parametrize("mode", MODES)
def test_worst_codes_decode_finite_at_the_check_norm(monkeypatch, mode):
    # Up to vquant._DECODE_CHECK_NORM the decoders scale without a range
    # check, so the largest well-formed decodes must stay finite there: d=1,
    # both end buckets, the top residual scale index and level, and both
    # ends of the dither's range [0, 1 - 2**-53].
    norm = vquant._DECODE_CHECK_NORM
    residual = ResidualCode(MAX_SCALE_IDX, np.array([MAX_LEVEL]), np.ones(1, dtype=np.int8))
    for dither in (0.0, 1.0 - 2.0**-53):
        monkeypatch.setattr(vquant, "derive_dither", lambda seed, vec_counter, u=dither: u)
        for bits in range(1, 17):
            cfg = QuantConfig(1, bits, mode)
            for index in (0, cfg.num_levels - 1):
                base = VectorCode(np.array([index], dtype=np.uint16), norm, 0, 0)
                two_stage = TwoStageCode(base, residual, cfg)
                for decoded in (vector_dequant(base, cfg), dequantize_two_stage(two_stage)):
                    assert np.isfinite(decoded).all(), (dither, bits, index)


def test_dequantize_command_rejects_a_payload_decoding_beyond_float64(tmp_path, capsys):
    codes, out = tmp_path / "codes", tmp_path / "out.vec"
    codes.mkdir()
    (codes / "vec_00000.hq").write_bytes(bitstream.encode(_overflowing_codes()[1]))
    assert main(["dequantize", "--input", str(codes), "--output", str(out)]) == 1
    assert "exceeds the float64 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x, cfg", [
    (np.array([1.7e308, 0.0, 0.0]), QuantConfig(dim=3, bits=4, mode=BIASED)),
    (np.array([1.5e308, -0.5e308, 0, 0, 0, 0, 0, 0]), QuantConfig(dim=8, bits=2)),
], ids=["dim3-biased", "dim8-unbiased"])
def test_two_stage_encodes_what_only_the_base_decode_overflows(x, cfg):
    # the base decode scales the unprojected base by the norm and overflows;
    # the two-stage decode never does, so the two-stage codec must not
    # inherit the base stage's rejection
    with pytest.raises(ValueError, match="float64 range"):
        vector_quant(x, cfg, 0, 1)
    decoded = dequantize_two_stage(quantize_two_stage(x, cfg, 0, 1))
    assert np.all(np.isfinite(decoded))
    assert np.array_equal(decode_payload(encode_vector(x, cfg, 0, 1)), decoded)


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)
_COORD = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda v: -v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 40),
    bits=st.integers(1, 16),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**64 - 1),
    vec_counter=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_any_finite_vector_decodes_finite(dim, bits, mode, seed, vec_counter, data):
    x = data.draw(hnp.arrays(np.float64, dim, elements=_COORD))
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    code = vector_quant(x, cfg, seed, vec_counter)
    two = quantize_two_stage(x, cfg, seed, vec_counter)
    assert code.norm == two.base.norm == pytest.approx(math.hypot(*x), rel=1e-13)

    unit_two = dataclasses.replace(two, base=dataclasses.replace(two.base, norm=1.0))
    for decoded, unit in (
        (vector_dequant(code, cfg), vector_dequant(dataclasses.replace(code, norm=1.0), cfg)),
        (decode_payload(encode_vector(x, cfg, seed, vec_counter)), dequantize_two_stage(unit_two)),
    ):
        assert decoded.shape == (dim,) and np.all(np.isfinite(decoded))
        # the norm only scales: a decode is all-zero exactly when the input
        # is zero or its unit direction decodes to zero
        assert decoded.any() == (x.any() and unit.any())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0])
def test_decoders_reject_bad_stored_norms(bad):
    # no encode makes such a norm, and the wire format rejects it; a decode
    # gave NaN, inf or a silently negated vector
    cfg = QuantConfig(dim=8, bits=4)
    x = np.arange(1.0, 9.0)
    code = vector_quant(x, cfg, seed=3, vec_counter=1)
    with pytest.raises(ValueError, match="stored norm"):
        vector_dequant(dataclasses.replace(code, norm=bad), cfg)
    two = quantize_two_stage(x, cfg, seed=3, vec_counter=1)
    two = dataclasses.replace(two, base=dataclasses.replace(two.base, norm=bad))
    with pytest.raises(ValueError, match="stored norm"):
        dequantize_two_stage(two)


@pytest.mark.parametrize("bad", ["1.0", None, 1j, np.complex128(2.0), np.array([1.0, 2.0])],
                         ids=["str", "None", "complex", "numpy-complex", "array"])
def test_a_non_real_stored_norm_is_rejected_as_a_bad_norm(bad):
    # math.isfinite raised TypeError for these, which escaped every checker
    # unnamed; a numpy complex passed with a warning
    cfg = QuantConfig(dim=8, bits=4)
    x = np.arange(1.0, 9.0)
    good = quantize_two_stage(x, cfg, seed=3, vec_counter=1)
    two = dataclasses.replace(good, base=dataclasses.replace(good.base, norm=bad))
    with pytest.raises(ValueError, match="stored norm"):
        vector_dequant(two.base, cfg)
    with pytest.raises(vquant.RowError, match="row 1: stored norm"):
        vector_dequant([good.base, two.base], cfg)
    with pytest.raises(vquant.RowError, match="row 1: stored norm"):
        dequantize_two_stage([good, two])
    for call in (bitstream.encode, bitstream.rate_report):
        with pytest.raises(bitstream.FieldOverflowError, match="stored norm"):
            call(two)
