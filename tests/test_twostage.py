import math

import numpy as np
import pytest

from hadaquant import bitstream
from hadaquant.residual import ResidualCode
from hadaquant.twostage import (
    TwoStageCode,
    dequantize_two_stage,
    estimate_inner_product,
    project_unit_ball,
    quantize_two_stage,
)
from hadaquant.vquant import QuantConfig, _decode_padded_unit, derive_base_signs
from hadaquant.residual import derive_residual_signs


def _unit(rng, dim):
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def test_projection_cases():
    v = np.array([0.3, 0.4])  # norm 0.5
    assert np.array_equal(project_unit_ball(v), v)
    w = np.array([0.0, 4.0])
    assert project_unit_ball(w) == pytest.approx([0.0, 1.0], abs=0)
    rng = np.random.default_rng(61)
    for _ in range(10):
        u = rng.standard_normal(16) * 3
        once = project_unit_ball(u)
        assert np.linalg.norm(once) <= 1.0 + 1e-12
        assert project_unit_ball(once) == pytest.approx(once, abs=1e-12)


def test_residual_norm_within_ball_bound():
    cfg = QuantConfig(dim=24, bits=2)
    rng = np.random.default_rng(62)
    for trial in range(30):
        code = quantize_two_stage(_unit(rng, 24), cfg, seed=4, vec_counter=trial)
        assert code.residual.scale_idx >= 0  # encode asserted ||r|| <= 2 internally


def test_residual_scale_typically_small():
    # median ||r||^2 <= 10 x the expected base distortion at bits=6
    cfg = QuantConfig(dim=1024, bits=6)
    rng = np.random.default_rng(63)
    x = _unit(rng, 1024)
    norms = []
    for trial in range(60):
        code = quantize_two_stage(x, cfg, seed=50, vec_counter=trial)
        approx = project_unit_ball(_decode_padded_unit(code.base, cfg))
        norms.append(float(np.sum((x - approx) ** 2)))
    cap = 10.0 * (math.pi * math.sqrt(3.0) / 2.0) / 4.0**6
    assert float(np.median(norms)) <= cap


def test_seed_determinism_byte_identical():
    cfg = QuantConfig(dim=40, bits=5)
    x = _unit(np.random.default_rng(64), 40)
    a = quantize_two_stage(x, cfg, seed=77, vec_counter=9)
    b = quantize_two_stage(x, cfg, seed=77, vec_counter=9)
    assert bitstream.encode(a) == bitstream.encode(b)


def test_stage_streams_are_separated():
    base = derive_base_signs(77, 9, 64)
    resid = derive_residual_signs(77, 9, 64)
    assert not np.array_equal(base, resid)


def test_trivial_residual_decodes_to_projected_base():
    cfg = QuantConfig(dim=12, bits=6)
    x = _unit(np.random.default_rng(65), 12)
    code = quantize_two_stage(x, cfg, seed=6, vec_counter=0)
    d = cfg.padded_dim
    trivial = TwoStageCode(
        code.base,
        ResidualCode(0, np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int8)),
        cfg,
    )
    expect = code.base.norm * project_unit_ball(_decode_padded_unit(code.base, cfg))[:12]
    assert np.array_equal(dequantize_two_stage(trivial), expect)


def test_roundtrip_distortion_reasonable():
    cfg = QuantConfig(dim=256, bits=6)
    rng = np.random.default_rng(66)
    x = _unit(rng, 256)
    errs = []
    for trial in range(30):
        code = quantize_two_stage(x, cfg, seed=12, vec_counter=trial)
        errs.append(float(np.sum((x - dequantize_two_stage(code)) ** 2)))
    # the sign-bit stage trades L2 distortion for query-direction
    # decorrelation; a loose cap still catches gross breakage
    assert float(np.mean(errs)) <= 100.0 / 4.0**6


def test_inner_product_trivial_cases():
    cfg = QuantConfig(dim=20, bits=4)
    x = _unit(np.random.default_rng(67), 20)
    code = quantize_two_stage(x, cfg, seed=2, vec_counter=0)
    assert estimate_inner_product(code, np.zeros(20)) == 0.0
    xhat = dequantize_two_stage(code)
    assert estimate_inner_product(code, xhat) == pytest.approx(
        float(xhat @ xhat), rel=1e-12
    )


def test_rejects_non_unit_and_bad_shapes():
    # non-unit and zero inputs are encoded, not rejected: the norm rides along
    cfg = QuantConfig(dim=8, bits=4)
    for scale in (0.5, 3.0, 1e-3):
        x = np.full(8, scale)
        decoded = dequantize_two_stage(quantize_two_stage(x, cfg, 0, 0))
        assert np.linalg.norm(decoded - x) <= 0.2 * np.linalg.norm(x)
    zero = quantize_two_stage(np.zeros(8), cfg, 0, 0)
    assert zero.base.norm == 0.0 and zero.residual.scale_idx == 0
    assert np.array_equal(dequantize_two_stage(zero), np.zeros(8))
    with pytest.raises(ValueError):
        quantize_two_stage(np.zeros(7), cfg, 0, 0)
    with pytest.raises(ValueError):
        quantize_two_stage(np.array([np.nan] + [0.0] * 7), cfg, 0, 0)
    x = _unit(np.random.default_rng(69), 8)
    code = quantize_two_stage(x, cfg, 0, 0)
    with pytest.raises(ValueError):
        estimate_inner_product(code, np.zeros(7))
    bad = TwoStageCode(
        code.base,
        ResidualCode(code.residual.scale_idx, code.residual.levels[:4],
                     code.residual.signs[:4]),
        cfg,
    )
    with pytest.raises(ValueError):
        dequantize_two_stage(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_non_finite_query(bad):
    cfg = QuantConfig(dim=8, bits=4)
    code = quantize_two_stage(_unit(np.random.default_rng(70), 8), cfg, 0, 0)
    y = np.ones(8)
    y[3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        estimate_inner_product(code, y)
    with pytest.raises(ValueError, match="NaN or infinite"):
        estimate_inner_product(code, np.full(8, bad))
