"""The stored norm: any finite input keeps its scale through both codecs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hadaquant.cli import decode_payload, encode_vector
from hadaquant.codebook import BIASED, MODES
from hadaquant.twostage import dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import QuantConfig, scaled_norm, vector_dequant, vector_quant


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
    # the norm itself overflows; then a finite norm whose decode would
    for x in (np.full(3, 1.5e308), np.array([1.7e308, 0.0, 0.0])):
        for encode in (vector_quant, quantize_two_stage, encode_vector):
            with pytest.raises(ValueError, match="float64 range"):
                encode(x, cfg, 0, 1)
    x = np.full(3, 1e307)
    code = vector_quant(x, cfg, 0, 1)
    for decoded in (vector_dequant(code, cfg), decode_payload(encode_vector(x, cfg, 0, 1))):
        assert np.all(np.isfinite(decoded)) and decoded.min() > 0.0


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
